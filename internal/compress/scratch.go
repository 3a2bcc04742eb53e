package compress

import "sync"

// kernelScratch holds the per-call intermediate storage of the kernels —
// selection keys, Floyd sets, dense reconstructions — working state that
// never escapes into payloads. It is pooled, not owned by a compressor or
// an executor: steady-state compression of a fixed tensor set allocates
// only what the payload itself carries, and an idle process holds none
// of it once the collector has emptied the pool.
type kernelScratch struct {
	keys      []uint32
	set       map[int32]struct{}
	dense     []float32
	corrected []float32
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// resetSet returns the scratch's membership set, emptied.
func (s *kernelScratch) resetSet(hint int) map[int32]struct{} {
	if s.set == nil {
		s.set = make(map[int32]struct{}, hint)
	} else {
		clear(s.set)
	}
	return s.set
}

// scratchBuf returns a length-n slice backed by buf when it has capacity.
// Contents are unspecified; callers overwrite every element.
func scratchBuf[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// bitsBuf returns a zeroed length-n byte slice backed by buf when it has
// capacity — the bit packers OR bits in, so reused buffers must be clean.
func bitsBuf(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
