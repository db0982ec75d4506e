package memtrace

import "sort"

// registry resolves an effective address to the memory object containing it.
//
// This is the hot path of the instrumentation tool, so it implements both
// lookup accelerations described in §III-D of the paper:
//
//  1. The address space is divided into buckets and objects are distributed
//     into buckets by address range; only the objects in the bucket selected
//     by the reference address are scanned.  To avoid clustering memory
//     objects into very few buckets — which would degrade lookups toward
//     linear scans — the division is recomputed dynamically so that objects
//     are evenly distributed between buckets: bucket boundaries are taken
//     from the quantiles of the live objects' base addresses.
//  2. A small software cache holding the most recently used objects (LRU
//     order) is consulted before the bucket index.
type registry struct {
	objects []*Object // all objects ever registered, indexed by ObjectID

	// bucket index over live objects: bucket i covers addresses in
	// [bounds[i], bounds[i+1]); bounds[0] = 0 and the last bucket is
	// unbounded above.
	bounds    []uint64
	buckets   [][]*Object
	liveCount int
	// rebalance control
	maxPerScan  int // chain length that triggers redivision
	lastRebuild int // liveCount at the previous redivision (hysteresis)

	// LRU software cache of most recently used objects
	cache    []*Object
	cacheCap int

	// statistics for the ablation benchmarks
	Lookups    uint64
	CacheHits  uint64
	Scanned    uint64 // objects examined during bucket scans
	Rebalances uint64
}

const (
	defaultBucketCount = 1024
	defaultCacheSize   = 8
	defaultMaxPerScan  = 64
)

func newRegistry(cacheSize int) *registry {
	r := &registry{
		cacheCap:   cacheSize,
		maxPerScan: defaultMaxPerScan,
		bounds:     []uint64{0},
		buckets:    make([][]*Object, 1),
	}
	if r.cacheCap > 0 {
		r.cache = make([]*Object, 0, r.cacheCap)
	}
	return r
}

// bucketOf returns the index of the bucket covering addr.
func (r *registry) bucketOf(addr uint64) int {
	// Find the last boundary <= addr.
	i := sort.Search(len(r.bounds), func(i int) bool { return r.bounds[i] > addr })
	return i - 1
}

// newObject appends an object to the identity table and returns it.
func (r *registry) newObject(o Object) *Object {
	o.ID = ObjectID(len(r.objects))
	obj := &o
	r.objects = append(r.objects, obj)
	return obj
}

// insert places a live object into the bucket index, redividing the address
// space if its chains have grown past the scan threshold.
func (r *registry) insert(o *Object) {
	if o.Size == 0 {
		return
	}
	r.liveCount++
	longest := r.place(o)
	if longest > r.maxPerScan && r.liveCount > r.lastRebuild+r.lastRebuild/4 {
		r.rebalance()
	}
}

// place inserts o into every bucket its range overlaps and returns the
// longest chain it touched, keeping the rebalance check O(1) per insert.
func (r *registry) place(o *Object) int {
	first := r.bucketOf(o.Base)
	last := r.bucketOf(o.Base + o.Size - 1)
	longest := 0
	for b := first; b <= last; b++ {
		r.buckets[b] = append(r.buckets[b], o)
		if len(r.buckets[b]) > longest {
			longest = len(r.buckets[b])
		}
	}
	return longest
}

// remove deletes a live object from the bucket index (heap free).
func (r *registry) remove(o *Object) {
	if o.Size == 0 {
		return
	}
	first := r.bucketOf(o.Base)
	last := r.bucketOf(o.Base + o.Size - 1)
	for b := first; b <= last; b++ {
		list := r.buckets[b]
		for i, cand := range list {
			if cand == o {
				list[i] = list[len(list)-1]
				r.buckets[b] = list[:len(list)-1]
				break
			}
		}
	}
	r.liveCount--
	// Drop it from the software cache so a recycled address range cannot
	// be attributed to the dead object.
	for i, c := range r.cache {
		if c == o {
			r.cache = append(r.cache[:i], r.cache[i+1:]...)
			break
		}
	}
}

// rebalance recomputes bucket boundaries from the quantiles of the live
// objects' base addresses, so that objects spread evenly across buckets
// regardless of how the address space is populated.
func (r *registry) rebalance() {
	r.Rebalances++
	r.lastRebuild = r.liveCount

	// Collect the live objects (deduplicated across spanning buckets).
	live := make([]*Object, 0, r.liveCount)
	seen := make(map[ObjectID]struct{}, r.liveCount)
	for _, list := range r.buckets {
		for _, o := range list {
			if _, dup := seen[o.ID]; dup {
				continue
			}
			seen[o.ID] = struct{}{}
			live = append(live, o)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Base < live[j].Base })

	// Target a chain length well under the scan threshold.
	per := r.maxPerScan / 4
	if per < 1 {
		per = 1
	}
	nb := len(live)/per + 1
	if nb > 1<<18 {
		nb = 1 << 18
	}
	bounds := make([]uint64, 0, nb+1)
	bounds = append(bounds, 0)
	for i := per; i < len(live); i += per {
		b := live[i].Base
		if b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	r.bounds = bounds
	r.buckets = make([][]*Object, len(bounds))
	for _, o := range live {
		r.place(o)
	}
}

// lookup resolves addr to the live object containing it, or nil.
//
//nvlint:hot
func (r *registry) lookup(addr uint64) *Object {
	r.Lookups++
	// 1. software cache, most recent first
	for i, o := range r.cache {
		if !o.Dead && o.Contains(addr) {
			r.CacheHits++
			if i != 0 {
				copy(r.cache[1:i+1], r.cache[:i])
				r.cache[0] = o
			}
			return o
		}
	}
	// 2. bucket index
	for _, o := range r.buckets[r.bucketOf(addr)] {
		r.Scanned++
		if !o.Dead && o.Contains(addr) {
			r.cacheInsert(o)
			return o
		}
	}
	return nil
}

func (r *registry) cacheInsert(o *Object) {
	if r.cacheCap == 0 {
		return
	}
	if len(r.cache) < r.cacheCap {
		r.cache = append(r.cache, nil)
	}
	copy(r.cache[1:], r.cache)
	r.cache[0] = o
}

// allObjects returns every object ever registered.
func (r *registry) allObjects() []*Object { return r.objects }
