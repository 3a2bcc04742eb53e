package compress

import (
	"fmt"
	"slices"
	"sync"
)

// Key names one error-feedback residual: a tensor and the dense region
// [Lo, Hi) of it that is compressed under that name.
type Key struct {
	Name   string
	Lo, Hi int
}

// ErrorFeedback wraps a Compressor with the error-feedback mechanism
// (Karimireddy et al.; Lin et al.): the residual between the corrected
// gradient and its compressed representation is remembered and added to
// the next iteration's gradient. This is what lets aggressive GC preserve
// convergence (§2.3), and §5.1 applies it on both GPU and CPU compression.
//
// Memory is one residual per Key per worker. Goroutines may use an
// ErrorFeedback concurrently on distinct keys; a key has a single writer:
// a Compress on a key reads and updates its residual in place, outside
// the lock, so it must not overlap another Compress, Residual or Reset
// that reaches the same key.
type ErrorFeedback struct {
	c Compressor
	// sparse is set when c is one of this package's sparsifiers, whose
	// reconstruction is the compressed input at the carried indices and
	// zero elsewhere: the residual is then corrected in place and only
	// the carried entries are subtracted, without a Decompress.
	sparse bool
	mu     sync.Mutex // guards the map, not the residuals in it
	mem    map[Key][]float32
}

// NewErrorFeedback wraps c.
func NewErrorFeedback(c Compressor) *ErrorFeedback {
	ef := &ErrorFeedback{c: c, mem: make(map[Key][]float32)}
	switch c.(type) {
	case randomK, topK:
		ef.sparse = true
	}
	return ef
}

// Compressor returns the wrapped compressor.
func (ef *ErrorFeedback) Compressor() Compressor { return ef.c }

// Compress applies error feedback around the wrapped compressor: it
// corrects grad with the stored residual for key, compresses the corrected
// gradient, and stores the new residual. grad is not modified.
func (ef *ErrorFeedback) Compress(key Key, grad []float32, seed uint64) (*Payload, error) {
	return ef.CompressInto(new(Payload), key, grad, seed)
}

// CompressInto is Compress writing the payload into dst (see
// Compressor.CompressInto). The residual is allocated on a key's first
// use and updated in place from then on: the steady state allocates
// nothing.
//
// For this package's sparsifiers the residual itself becomes the
// corrected gradient, is compressed where it lies, and loses the values
// the payload carries. Any other compressor is applied atomically: the
// corrected gradient and its reconstruction live in pooled scratch, and
// the residual is written only after Decompress succeeded, so an error
// leaves it as it was.
func (ef *ErrorFeedback) CompressInto(dst *Payload, key Key, grad []float32, seed uint64) (*Payload, error) {
	ef.mu.Lock()
	residual, seen := ef.mem[key]
	ef.mu.Unlock()
	if seen && len(residual) != len(grad) {
		return nil, fmt.Errorf("compress: residual for %v has %d elements, gradient has %d", key, len(residual), len(grad))
	}
	if ef.sparse {
		if !seen {
			residual = slices.Clone(grad)
			ef.store(key, residual)
		} else {
			for i, g := range grad {
				residual[i] = g + residual[i]
			}
		}
		p := ef.c.CompressInto(dst, residual, seed)
		for i, j := range p.Indices {
			residual[j] -= p.Values[i]
		}
		return p, nil
	}

	sc := kernelPool.Get().(*kernelScratch)
	defer kernelPool.Put(sc)
	corrected := grad
	if seen {
		corrected = scratchBuf(sc.corrected, len(grad))
		sc.corrected = corrected
		for i, g := range grad {
			corrected[i] = g + residual[i]
		}
	}
	p := ef.c.CompressInto(dst, corrected, seed)
	recon := scratchBuf(sc.dense, len(grad))
	sc.dense = recon
	if err := ef.c.Decompress(p, recon); err != nil {
		return nil, err
	}
	if !seen {
		residual = make([]float32, len(grad))
		ef.store(key, residual)
	}
	for i, r := range recon {
		residual[i] = corrected[i] - r
	}
	return p, nil
}

// store records key's newly allocated residual.
func (ef *ErrorFeedback) store(key Key, residual []float32) {
	ef.mu.Lock()
	ef.mem[key] = residual
	ef.mu.Unlock()
}

// Residual returns a copy of the stored residual for key, or nil.
func (ef *ErrorFeedback) Residual(key Key) []float32 {
	ef.mu.Lock()
	defer ef.mu.Unlock()
	return slices.Clone(ef.mem[key])
}

// Reset drops all stored residuals.
func (ef *ErrorFeedback) Reset() {
	ef.mu.Lock()
	defer ef.mu.Unlock()
	ef.mem = make(map[Key][]float32)
}
