// Package fixture exercises the hot contract.
package fixture

import "fmt"

type counters struct {
	bySeg map[uint8]uint64
	perID map[int][]uint64
	arr   [4]uint64
	trace []string
}

// observe is marked hot and breaks the contract three ways: a map read,
// a map assignment and a fmt call.
//
//nvlint:hot
func (c *counters) observe(seg uint8, id int) {
	n := c.bySeg[seg]
	c.bySeg[seg] = n + 1
	c.perID[id] = append(c.perID[id], n)
	c.bySeg[seg]++
	c.trace = append(c.trace, fmt.Sprintf("seg %d", seg))
	func() {
		_ = fmt.Sprint(id)
	}()
}

// observeArray is marked hot and keeps the contract: array and slice
// indexing are free.
//
//nvlint:hot
func (c *counters) observeArray(seg uint8) {
	c.arr[seg&3]++
	if len(c.trace) > 0 {
		c.trace[0] = ""
	}
}

// summarize is not marked, so maps and fmt are fine here.
func (c *counters) summarize() string {
	c.bySeg[0]++
	return fmt.Sprint(c.bySeg[0])
}

// suppressed is marked hot; its map read is suppressed at the site.
//
//nvlint:hot
func suppressed(m map[string]int) int {
	return m["x"] //nvlint:ignore hot fixture demonstrates an inline suppression
}
