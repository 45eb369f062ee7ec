package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ppdm/internal/prng"
	"ppdm/internal/stats"
)

func TestApportionExact(t *testing.T) {
	counts := apportion([]float64{0.5, 0.25, 0.25}, 8)
	want := []int{4, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("apportion = %v, want %v", counts, want)
		}
	}
}

func TestApportionRemainders(t *testing.T) {
	// 1/3 each over 10 records: 3.33 each, largest remainders break ties by
	// index: 4,3,3.
	counts := apportion([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 10)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 10 {
		t.Fatalf("apportion sums to %d", sum)
	}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("apportion = %v, want [4 3 3]", counts)
	}
}

func TestApportionSumsProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8, nRaw uint16) bool {
		r := prng.New(seed)
		k := int(kRaw%30) + 1
		n := int(nRaw % 5000)
		p := make([]float64, k)
		for i := range p {
			p[i] = r.Float64()
		}
		stats.Normalize(p)
		counts := apportion(p, n)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedAssignEmpty(t *testing.T) {
	bins, err := orderedAssign(nil, []float64{1})
	if err != nil || bins != nil {
		t.Fatalf("empty assign = %v, %v", bins, err)
	}
	if _, err := orderedAssign([]float64{1}, nil); err == nil {
		t.Fatal("empty distribution accepted")
	}
}

func TestOrderedAssignCountsMatchApportion(t *testing.T) {
	r := prng.New(5)
	values := make([]float64, 100)
	for i := range values {
		values[i] = r.Uniform(0, 1)
	}
	p := []float64{0.1, 0.4, 0.3, 0.2}
	bins, err := orderedAssign(values, p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(p))
	for _, b := range bins {
		got[b]++
	}
	want := apportion(p, len(values))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignment counts %v, want %v", got, want)
		}
	}
}

func TestOrderedAssignPreservesOrder(t *testing.T) {
	// The record with a smaller perturbed value never lands in a higher bin.
	r := prng.New(6)
	values := make([]float64, 200)
	for i := range values {
		values[i] = r.Gaussian(50, 20)
	}
	p := []float64{0.25, 0.25, 0.25, 0.25}
	bins, err := orderedAssign(values, p)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	prev := -1
	for _, i := range idx {
		if bins[i] < prev {
			t.Fatal("ordered assignment violated monotonicity")
		}
		prev = bins[i]
	}
}

func TestOrderedAssignSkipsZeroBins(t *testing.T) {
	values := []float64{3, 1, 2, 4}
	p := []float64{0.5, 0, 0, 0.5}
	bins, err := orderedAssign(values, p)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 0, 3} // two smallest to bin 0, two largest to bin 3
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
}

func TestOrderedAssignProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, kRaw uint8) bool {
		r := prng.New(seed)
		n := int(nRaw%500) + 1
		k := int(kRaw%20) + 1
		values := make([]float64, n)
		for i := range values {
			values[i] = r.Gaussian(0, 100)
		}
		p := make([]float64, k)
		for i := range p {
			p[i] = r.Float64()
		}
		stats.Normalize(p)
		bins, err := orderedAssign(values, p)
		if err != nil || len(bins) != n {
			return false
		}
		counts := make([]int, k)
		for _, b := range bins {
			if b < 0 || b >= k {
				return false
			}
			counts[b]++
		}
		want := apportion(p, n)
		for i := range want {
			if counts[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModeParseAndString(t *testing.T) {
	for _, m := range Modes() {
		parsed, err := ParseMode(m.String())
		if err != nil || parsed != m {
			t.Errorf("round trip of %v failed: %v, %v", m, parsed, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode parsed")
	}
	if Mode(99).Valid() {
		t.Error("Mode(99) claims valid")
	}
	if !Global.NeedsNoise() || !ByClass.NeedsNoise() || !Local.NeedsNoise() {
		t.Error("reconstruction modes must need noise")
	}
	if Original.NeedsNoise() || Randomized.NeedsNoise() {
		t.Error("baseline modes must not need noise")
	}
}

// stableOrderedAssign is the comparison-sort re-assignment orderedAssign
// replaced, kept as the oracle of the differential test below.
func stableOrderedAssign(values []float64, p []float64) []int {
	counts := apportion(p, len(values))
	order := stableOrder(values)
	bins := make([]int, len(values))
	b, used := 0, 0
	for _, idx := range order {
		for b < len(counts)-1 && used >= counts[b] {
			b++
			used = 0
		}
		bins[idx] = b
		used++
	}
	return bins
}

// stableOrder is the permutation a stable sort under < gives.
func stableOrder(values []float64) []int {
	order := make([]int, len(values))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })
	return order
}

// tieHeavyValues draws n values from a small pool of hard cases — both
// zeros, subnormals, negatives, extremes and full-precision doubles — so
// that ties are frequent and every radix byte is exercised.
func tieHeavyValues(r *prng.Source, n, poolSize int) []float64 {
	fixed := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		1, -1, math.MaxFloat64, -math.MaxFloat64, 1e-300, -1e300,
	}
	pool := make([]float64, poolSize)
	for i := range pool {
		if r.Intn(2) == 0 {
			pool[i] = fixed[r.Intn(len(fixed))]
		} else {
			pool[i] = r.Gaussian(0, 100) * math.Pow(10, float64(r.Intn(40)-20))
		}
	}
	values := make([]float64, n)
	for i := range values {
		values[i] = pool[r.Intn(len(pool))]
	}
	return values
}

func TestOrderedAssignMatchesStableSortOracle(t *testing.T) {
	f := func(seed uint64, nRaw uint16, kRaw, poolRaw uint8) bool {
		r := prng.New(seed)
		n := int(nRaw%3000) + 1
		k := int(kRaw%20) + 1
		values := tieHeavyValues(r, n, int(poolRaw%40)+1)
		p := make([]float64, k)
		for i := range p {
			p[i] = r.Float64()
		}
		stats.Normalize(p)

		want := stableOrder(values)
		got := rankOrder(values)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Errorf("seed %d: rank %d holds row %d, stable sort has row %d", seed, i, got[i], want[i])
				return false
			}
		}
		bins, err := orderedAssign(values, p)
		if err != nil {
			t.Error(err)
			return false
		}
		oracle := stableOrderedAssign(values, p)
		for i := range oracle {
			if bins[i] != oracle[i] {
				t.Errorf("seed %d: row %d in bin %d, oracle says %d", seed, i, bins[i], oracle[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRankOrderEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	up := math.Nextafter(2, 3) // differs from 2 in the lowest key byte only
	cases := []struct {
		name   string
		values []float64
		want   []int32
	}{
		// Every radix pass is skipped: row order must remain.
		{"all tied", []float64{2, 2, 2, 2, 2}, []int32{0, 1, 2, 3, 4}},
		{"both zeros tie", []float64{0, negZero, 0, negZero}, []int32{0, 1, 2, 3}},
		// Only one key differs, in one byte: that pass must still run.
		{"one byte apart", []float64{2, 2, up, 2}, []int32{0, 1, 3, 2}},
		{"single value", []float64{-7}, []int32{0}},
	}
	for _, c := range cases {
		got := rankOrder(c.values)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: rankOrder = %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}
