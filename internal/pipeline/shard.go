package pipeline

import (
	"context"
	"fmt"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/trace"
)

// shardedStack partitions one application run's iteration space across K
// per-shard stacks — each with its own tracer, cache hierarchy and seeded
// sampler — and deterministically merges their per-object statistics, cache
// counters, transaction traces and performance streams so the result is
// byte-identical to the K=1 stack at any shard count.
//
// The execution model is selective replay: every shard replays the
// application deterministically from the start up to the end of its owned
// span, so all simulator state (cache lines, sampler PRNG, attribution
// index) evolves exactly as in a full run, but recording and emission are
// gated to the contiguous iteration span the shard owns (memtrace.Window).
// Shard 0 owns the pre-computing phase, the last shard owns the
// post-processing phase and replays to the end.  Emitted transaction and
// perf streams are captured per shard in arena chunks and concatenated in
// (shard, sequence) order at Merge.
//
// Replay is what buys exactness: sharding trades total work (shard k replays
// e_k iterations to record e_k - s_k + 1) for per-shard independence, so K
// shards could run on K cores with no cross-shard synchronization at all;
// Run drives them one after another.
type shardedStack struct {
	cfg      Config
	stacks   []*Stack
	windows  []*memtrace.Window
	txCaps   []*TxChunkCapture
	perfCaps []*PerfChunkCapture
	merged   *Stack
}

// buildSharded assembles shards per-shard stacks over cfg for a run of the
// given main-loop iteration count.  The shard count is clamped to
// [1, iterations].  Access taps are not supported in sharded mode (a tap
// would observe every shard's replayed prefix, not the run's stream once);
// per-shard stacks carry no metrics registry — Merge folds the exact
// pipeline counters a K=1 run would have recorded.
func buildSharded(cfg Config, iterations, shards int) (*shardedStack, error) {
	if len(cfg.AccessTaps) > 0 {
		return nil, fmt.Errorf("pipeline: sharded stacks do not support access taps")
	}
	if iterations < 1 {
		return nil, fmt.Errorf("pipeline: sharded stack needs at least one main-loop iteration, got %d", iterations)
	}
	if shards < 1 {
		shards = 1
	}
	if shards > iterations {
		shards = iterations
	}
	if cfg.Arenas == nil {
		cfg.Arenas = NewArenas(cfg.BufferSize)
	}
	ss := &shardedStack{cfg: cfg}
	for k := 0; k < shards; k++ {
		win := &memtrace.Window{
			Start: k*iterations/shards + 1,
			End:   (k + 1) * iterations / shards,
			First: k == 0,
			Last:  k == shards-1,
		}
		scfg := cfg
		scfg.Metrics = nil
		scfg.Labels = nil
		scfg.window = win
		scfg.CaptureTx = false
		scfg.TxSinks = nil
		scfg.Perf = nil
		if cfg.CaptureTx || len(cfg.TxSinks) > 0 {
			tc := NewTxChunkCapture(cfg.Arenas.Tx)
			ss.txCaps = append(ss.txCaps, tc)
			scfg.TxSinks = []trace.TxSink{tc}
		}
		if cfg.Perf != nil {
			pc := NewPerfChunkCapture(cfg.Arenas.Perf)
			ss.perfCaps = append(ss.perfCaps, pc)
			scfg.Perf = pc
		}
		st, err := Build(scfg)
		if err != nil {
			return nil, err
		}
		ss.stacks = append(ss.stacks, st)
		ss.windows = append(ss.windows, win)
	}
	return ss, nil
}

// runSharded is Run's sharded path: every shard replays the app from the
// start (apps are deterministic in (name, scale)) up to the end of its owned
// span, and Merge folds the shards into a stack byte-identical to the
// single-stack run.  The returned app is the last shard's — the one that
// replayed the whole program, post-processing included.
func runSharded(ctx context.Context, cfg Config, app string, scale float64, iterations, shards int) (*Stack, apps.App, error) {
	ss, err := buildSharded(cfg, iterations, shards)
	if err != nil {
		return nil, nil, err
	}
	var a apps.App
	for k, st := range ss.stacks {
		a, err = apps.New(app, scale)
		if err == nil {
			err = apps.RunContext(ctx, a, st.Tracer, ss.windows[k].End)
		}
		if err != nil {
			//nvlint:ignore errcontract best-effort cleanup; the run error is reported
			_ = ss.Close()
			return nil, nil, err
		}
	}
	merged, err := ss.Merge()
	if err != nil {
		return nil, nil, err
	}
	return merged, a, nil
}

// Merge closes every shard and folds them into one stack equivalent to a
// K=1 run: merged per-object and per-segment statistics, merged cache
// counters, the captured transaction trace concatenated in (shard, seq)
// order, and the configured TxSinks/Perf consumers fed the merged streams.
// Arena chunks are handed back as they are delivered.  Merge is idempotent;
// the shards must not be used afterwards.
func (s *shardedStack) Merge() (*Stack, error) {
	if s.merged != nil {
		return s.merged, nil
	}
	defer s.releaseCaptures()
	var err error
	for _, st := range s.stacks {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}

	tracers := make([]*memtrace.Tracer, len(s.stacks))
	for i, st := range s.stacks {
		tracers[i] = st.Tracer
	}
	merged := &Stack{Tracer: memtrace.MergeShards(tracers), cfg: s.cfg, closed: true}
	if s.stacks[len(s.stacks)-1].Hierarchy != nil {
		hiers := make([]*cachesim.Hierarchy, len(s.stacks))
		for i, st := range s.stacks {
			hiers[i] = st.Hierarchy
		}
		merged.Hierarchy = cachesim.MergeShards(hiers)
	}

	if len(s.txCaps) > 0 {
		var capture *Capture[trace.Transaction]
		if s.cfg.CaptureTx {
			total := 0
			for _, c := range s.txCaps {
				total += c.Len()
			}
			capture = &Capture[trace.Transaction]{Items: make([]trace.Transaction, 0, total)}
			merged.capture = capture
		}
		for _, c := range s.txCaps {
			err := c.Deliver(func(batch []trace.Transaction) error {
				for _, sink := range s.cfg.TxSinks {
					if err := sink.FlushTx(batch); err != nil {
						return err
					}
				}
				if capture != nil {
					capture.Items = append(capture.Items, batch...)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			c.Release()
		}
	}
	if s.cfg.Perf != nil {
		for _, c := range s.perfCaps {
			if err := c.Deliver(s.cfg.Perf.FlushEvents); err != nil {
				return nil, err
			}
			c.Release()
		}
	}

	merged.foldMetrics()
	s.merged = merged
	return merged, nil
}

// Close aborts a sharded run, closing every shard and handing captured
// arena chunks back; Merge closes the shards itself, so Close is only
// needed on error paths.
func (s *shardedStack) Close() error {
	var err error
	for _, st := range s.stacks {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.releaseCaptures()
	return err
}

// releaseCaptures hands every per-shard capture's chunks back to the
// arenas.  Release is idempotent, so this is safe after a successful
// Merge (which releases each capture as it is delivered) and is what
// keeps error returns from leaking chunks out of the arena accounting.
func (s *shardedStack) releaseCaptures() {
	for _, c := range s.txCaps {
		c.Release()
	}
	for _, c := range s.perfCaps {
		c.Release()
	}
}
