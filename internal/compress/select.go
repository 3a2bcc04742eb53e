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
	keys := scratchBuf(sc.keys, len(x))
	sc.keys = keys
	m := 0
	for ; m < k; floor = 0 { // a floor fewer than k keys reach is dropped
		m = 0
		for _, v := range x {
			if key := magKey(v); key >= floor {
				keys[m] = key
				m++
			}
		}
	}
	kth, ties := kthLargest(keys[:m], k)

	idx = idx[:0]
	for i, v := range x {
		key := magKey(v)
		if key < kth || key == kth && ties == 0 {
			continue
		}
		if key == kth {
			ties--
		}
		idx = append(idx, int32(i))
		if len(idx) == k {
			break
		}
	}
	return idx
}

// Radix digits of a 31-bit key, most significant first. The top digit
// spans the exponent and three mantissa bits, so gradient-like data —
// most of it within a few binades — spreads over tens of buckets.
var digitShifts = [...]struct{ shift, bits uint }{{20, 11}, {10, 10}, {0, 10}}

// kthLargest returns the k-th largest of keys (1 <= k <= len(keys)) and
// how many keys equal to it are among the k largest, by radix select:
// histogram a digit, find the bucket holding rank k, keep only that
// bucket's keys, descend. keys is overwritten.
func kthLargest(keys []uint32, k int) (kth uint32, ties int) {
	var hist [1 << 11]int32
	for _, d := range digitShifts {
		mask := uint32(1)<<d.bits - 1
		clear(hist[:mask+1])
		for _, key := range keys {
			hist[key>>d.shift&mask]++
		}
		b := mask
		for ; int(hist[b]) < k; b-- {
			k -= int(hist[b])
		}
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
