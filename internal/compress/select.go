package compress

import "math"

const signBit = 1 << 31

// magKey is v's rank in the selection order: its IEEE-754 bit pattern
// with the sign cleared, compared as an unsigned integer. That orders
// finite values by magnitude, puts ±Inf above every finite value and NaN
// above ±Inf, and gives +0 and -0 the same key — a total order, where
// comparing float magnitudes is not one once a NaN is present.
func magKey(v float32) uint32 { return math.Float32bits(v) &^ signBit }

// selectTopK writes into idx the indices of the k largest elements of x
// (1 <= k <= len(x)) under magKey, ascending; among equal keys the lowest
// indices win. floor is a pre-filter, not a condition on the result: when
// at least k keys reach it only those are ranked (what DGC's sample buys),
// when fewer do, all are. Either way: the exact top k, in O(len(x)).
func selectTopK(idx []int32, x []float32, k int, floor uint32, sc *kernelScratch) []int32 {
	if floor > 0 {
		keys := scratchBuf(sc.keys, len(x))
		sc.keys = keys
		m := 0
		for _, v := range x {
			if key := magKey(v); key >= floor {
				keys[m] = key
				m++
			}
		}
		if m >= k {
			kth, ties := kthLargest(keys[:m], k)
			return indicesOf(idx, x, k, kth, ties)
		}
	}
	// No floor, or one fewer than k keys reach: rank all of x.
	kth, ties := kthLargestOf(x, k, sc)
	return indicesOf(idx, x, k, kth, ties)
}

// indicesOf writes into idx, ascending, the indices of the k elements of
// x whose keys are above kth, or equal to it and among the first ties
// such. Almost every key is below kth, so the hot loop is the inner
// skip to the next key that can make the cut: a load, a mask and a
// compare.
func indicesOf(idx []int32, x []float32, k int, kth uint32, ties int) []int32 {
	idx = idx[:0]
	for i := 0; len(idx) < k; i++ {
		for magKey(x[i]) < kth {
			i++
		}
		if magKey(x[i]) == kth {
			if ties == 0 {
				continue
			}
			ties--
		}
		idx = append(idx, int32(i))
	}
	return idx
}

// Radix digits of a 31-bit key, most significant first. The top digit
// spans the exponent and three mantissa bits, so gradient-like data —
// most of it within a few binades — spreads over tens of buckets.
var digitShifts = [...]struct{ shift, bits uint }{{20, 11}, {10, 10}, {0, 10}}

// kthLargestOf is kthLargest over the keys of x, without a key per
// element: the top digit is histogrammed straight from x, and only the
// keys of the bucket holding rank k are written to scratch and ranked
// further.
func kthLargestOf(x []float32, k int, sc *kernelScratch) (kth uint32, ties int) {
	top := digitShifts[0].shift
	var hist [1 << 11]int32
	for _, v := range x {
		hist[magKey(v)>>top]++
	}
	b, k := rankBucket(hist[:], k)
	keys := scratchBuf(sc.keys, int(hist[b]))
	sc.keys = keys
	m := 0
	for _, v := range x {
		key := magKey(v)
		keys[m] = key
		if key>>top == b {
			m++
			if m == len(keys) {
				break
			}
		}
	}
	return radixSelect(keys, k, b<<top, digitShifts[1:])
}

// kthLargest returns the k-th largest of keys (1 <= k <= len(keys)) and
// how many keys equal to it are among the k largest, by radix select:
// histogram a digit, find the bucket holding rank k, keep only that
// bucket's keys, descend. keys is overwritten.
func kthLargest(keys []uint32, k int) (kth uint32, ties int) {
	return radixSelect(keys, k, 0, digitShifts[:])
}

// radixSelect is kthLargest over keys that all share the digits above
// the first of digits, which kth already holds.
func radixSelect(keys []uint32, k int, kth uint32, digits []struct{ shift, bits uint }) (uint32, int) {
	var hist [1 << 11]int32
	for _, d := range digits {
		mask := uint32(1)<<d.bits - 1
		clear(hist[:mask+1])
		for _, key := range keys {
			hist[key>>d.shift&mask]++
		}
		var b uint32
		b, k = rankBucket(hist[:mask+1], k)
		kth |= b << d.shift
		if d.shift == 0 {
			break
		}
		m := 0
		for _, key := range keys {
			keys[m] = key
			if key>>d.shift&mask == b {
				m++
			}
		}
		keys = keys[:m]
	}
	return kth, k
}

// rankBucket returns the bucket of hist holding rank k, counting from
// the top bucket down, and k's rank within it.
func rankBucket(hist []int32, k int) (uint32, int) {
	b := len(hist) - 1
	for ; int(hist[b]) < k; b-- {
		k -= int(hist[b])
	}
	return uint32(b), k
}
