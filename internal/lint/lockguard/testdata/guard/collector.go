// Fixture derived from a receive loop appending to a mutex-guarded
// message log and from internal/isis/lsdb.go, the shared structures a
// live capture path mutates concurrently. The defective methods are
// the correct accessors with the locking dropped — the exact
// snapshot-without-lock race the annotation convention exists to
// catch.
package guard

import "sync"

// collector is a message log one receive goroutine appends to and
// accessors snapshot.
type collector struct {
	mu       sync.Mutex
	messages []string // guarded by mu
	dropped  int      // guarded by mu

	ref string // unguarded: written once before the goroutine starts
}

// newCollector constructs a not-yet-shared value; accesses through a
// function-local variable are exempt.
func newCollector(ref string) *collector {
	c := &collector{ref: ref}
	c.messages = make([]string, 0, 64)
	return c
}

// run is the receive loop: correct, locks around
// both guarded fields.
func (c *collector) run(lines <-chan string, parse func(string) (string, error)) {
	for line := range lines {
		m, err := parse(line)
		c.mu.Lock()
		if err != nil {
			c.dropped++
		} else {
			c.messages = append(c.messages, m)
		}
		c.mu.Unlock()
	}
}

// snapshot is correct: read under the lock.
func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.messages...)
}

// droppedCount is the defect: reading a guarded counter without the
// lock races with run's increment.
func (c *collector) droppedCount() int {
	return c.dropped // want `read of c\.dropped \(guarded by mu\) without holding c\.mu\.Lock`
}

// reset is the write-path defect.
func (c *collector) reset() {
	c.messages = nil // want `write to c\.messages \(guarded by mu\) without holding c\.mu\.Lock`
	c.dropped = 0    // want `write to c\.dropped \(guarded by mu\) without holding c\.mu\.Lock`
}

// appendLocked follows the *Locked suffix convention: the caller
// holds the mutex.
func (c *collector) appendLocked(m string) {
	c.messages = append(c.messages, m)
}

// name reads only unguarded state; no lock required.
func (c *collector) name() string { return c.ref }

// database mirrors isis.Database with its RWMutex.
type database struct {
	mu   sync.RWMutex
	lsps map[string]int // guarded by mu
}

// get is correct: a read under RLock.
func (db *database) get(id string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lsps[id]
}

// install under RLock is the subtler defect: the read lock does not
// license a map write.
func (db *database) install(id string, seq int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.lsps[id] = seq // want `write to db\.lsps \(guarded by mu\) under db\.mu\.RLock; writes need db\.mu\.Lock`
}

// drain accesses another instance's guarded field: the lock must be
// taken on that instance's chain, and here it is.
func drain(src *database) map[string]int {
	src.mu.Lock()
	defer src.mu.Unlock()
	out := src.lsps
	src.lsps = map[string]int{}
	return out
}

// purge mutates the map through the delete builtin: still a write,
// still not licensed by RLock.
func (db *database) purge(id string) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	delete(db.lsps, id) // want `write to db\.lsps \(guarded by mu\) under db\.mu\.RLock; writes need db\.mu\.Lock`
}

// merge locks the receiver but touches the other instance's guarded
// map without its lock.
func (db *database) merge(other *database) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for id, seq := range other.lsps { // want `read of other\.lsps \(guarded by mu\) without holding other\.mu\.Lock`
		if seq > db.lsps[id] {
			db.lsps[id] = seq
		}
	}
}
