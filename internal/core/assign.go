package core

import (
	"fmt"
	"math"
	"sort"
)

// apportion converts a probability vector into integer counts summing to n
// using the largest-remainder method, with ties broken by lower index so the
// result is deterministic.
func apportion(p []float64, n int) []int {
	counts := make([]int, len(p))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(p))
	assigned := 0
	for i, v := range p {
		exact := v * float64(n)
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; assigned < n; i++ {
		counts[rems[i%len(rems)].idx]++
		assigned++
	}
	return counts
}

// orderedAssign implements the paper's re-assignment step: given the
// perturbed values of a set of records and the reconstructed distribution p
// over k intervals, it sorts the records by perturbed value and assigns the
// smallest apportion(p, n)[0] of them to interval 0, the next block to
// interval 1, and so on. Sorting preserves the association between a
// record's rank and its likely position in the original distribution, which
// is what lets each record keep its own class label.
//
// The values must be finite (reconstruction rejects anything else first).
// The returned slice gives the assigned interval per record, aligned with
// the input order.
func orderedAssign(values []float64, p []float64) ([]int, error) {
	n := len(values)
	if n == 0 {
		return nil, nil
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("core: orderedAssign with empty distribution")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("core: orderedAssign over %d values exceeds int32 row indices", n)
	}
	counts := apportion(p, n)

	bins := make([]int, n)
	b, used := 0, 0
	for _, idx := range rankOrder(values) {
		for b < len(counts)-1 && used >= counts[b] {
			b++
			used = 0
		}
		bins[idx] = b
		used++
	}
	return bins, nil
}

// rankOrder returns the row indices of finite values in ascending value
// order with ties in row order: exactly the permutation a stable sort under
// < yields. It is an LSD radix sort, one pass per byte of an order-preserving
// uint64 key, and stable, so tied values keep their row order. A pass over a
// byte that every key shares moves nothing and is skipped. Each pass
// recomputes the keys from values rather than carrying them, which keeps
// the scratch to two int32 index arrays.
func rankOrder(values []float64) []int32 {
	n := len(values)
	var hist [8][256]int
	for _, v := range values {
		k := sortKey(v)
		for d := range hist {
			hist[d][byte(k>>(8*d))]++
		}
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	buf := make([]int32, n)
	first := sortKey(values[0])
	for d := range hist {
		shift := 8 * d
		h := &hist[d]
		if h[byte(first>>shift)] == n {
			continue
		}
		sum := 0
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for _, row := range order {
			digit := byte(sortKey(values[row]) >> shift)
			buf[h[digit]] = row
			h[digit]++
		}
		order, buf = buf, order
	}
	return order
}

// sortKey maps a finite float64 to a uint64 whose unsigned order is the
// float's numeric order: negative values have all bits flipped, others only
// the sign bit. -0 becomes +0 first, since the two compare equal under <.
func sortKey(v float64) uint64 {
	bits := math.Float64bits(v)
	if v == 0 {
		bits = 0
	}
	return bits ^ (uint64(int64(bits)>>63) | 1<<63)
}
