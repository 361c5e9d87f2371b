package kripke

import "sync"

// freelistCap bounds every freelist: enough for the evaluators of the
// concurrent Eval and EvalBatch callers, or the concurrent Restricts, of a
// small host.
// A put to a full list drops the object to the collector.
const freelistCap = 8

// freelist is a bounded stack of idle scratch objects under a mutex. The
// array is fixed, so a put never allocates. Unlike a sync.Pool, which the
// runtime keeps on a global list and empties over two collections, a
// freelist is reachable only from its owner and keeps its objects across
// collections: a model's evaluator freelist dies with the model at the
// next GC, and reuse does not depend on when collections run.
type freelist[T any] struct {
	mu  sync.Mutex
	n   int
	buf [freelistCap]*T
}

// get pops an idle object, or returns nil when the list is empty.
func (f *freelist[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n == 0 {
		return nil
	}
	f.n--
	x := f.buf[f.n]
	f.buf[f.n] = nil
	return x
}

// put pushes x, or drops it when the list is full.
func (f *freelist[T]) put(x *T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n < freelistCap {
		f.buf[f.n] = x
		f.n++
	}
}
