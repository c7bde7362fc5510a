package tensor

import "sync"

// Pool recycles tensor backing buffers keyed by exact element count — the
// arena behind the static-graph memory planner. Get returns a tensor
// whose data is NOT zeroed when it comes from the free list; every kernel
// writing into a pooled buffer must store all elements (the *Into kernel
// contract). Put hands a buffer back for reuse; the caller must not touch
// the tensor (or any view sharing its data) afterwards, and must not Put
// the same buffer twice. All methods are safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free map[int][]*Tensor

	gets, misses, puts int
}

// NewPool returns an empty buffer pool.
func NewPool() *Pool { return &Pool{free: make(map[int][]*Tensor)} }

// Get returns a tensor of the given shape, reusing a free buffer with the
// same element count when one is available (contents are then arbitrary)
// and allocating a fresh zeroed one otherwise.
func (p *Pool) Get(shape ...int) *Tensor {
	s := Shape(shape)
	elems := s.NumElems()
	p.mu.Lock()
	p.gets++
	if list := p.free[elems]; len(list) > 0 {
		t := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[elems] = list[:len(list)-1]
		p.mu.Unlock()
		// Reuse the parked Tensor and its Shape backing: steady-state
		// pooled inference must not touch the allocator at all.
		t.Shape = append(t.Shape[:0], s...)
		return t
	}
	p.misses++
	p.mu.Unlock()
	return New(shape...)
}

// Put returns t's buffer to the pool for a later Get of the same element
// count. nil and empty tensors are ignored.
func (p *Pool) Put(t *Tensor) {
	if t == nil || len(t.Data) == 0 {
		return
	}
	p.mu.Lock()
	p.puts++
	p.free[len(t.Data)] = append(p.free[len(t.Data)], t)
	p.mu.Unlock()
}

// Preallocate seeds the pool with one buffer per element count in counts,
// so a planned first inference runs without allocator traffic: each
// buffer's shape has room for a C×D×H×W volume, so the first Get that
// reshapes it does not allocate either.
func (p *Pool) Preallocate(counts ...int) {
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p.Put(&Tensor{Shape: Shape{c, 0, 0, 0}[:1], Data: make([]float32, c)})
	}
}

// PoolStats is a snapshot of pool traffic: Misses counts Gets that had to
// allocate, Idle the buffers currently parked on free lists.
type PoolStats struct {
	Gets, Misses, Puts, Idle int
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := 0
	for _, list := range p.free {
		idle += len(list)
	}
	return PoolStats{Gets: p.gets, Misses: p.misses, Puts: p.puts, Idle: idle}
}
