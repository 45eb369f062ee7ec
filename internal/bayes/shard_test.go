package bayes

import (
	"encoding/json"
	"io"
	"math"
	"testing"

	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/stream"
)

// shardFixture is a two-attribute, two-class schema small enough for the
// fuzzer to finalize thousands of states a second, with the training
// configurations a shard worker may run on it: ByClass reconstructs
// attribute 0 and bins attribute 1 directly.
func shardFixture(t testing.TB) (*dataset.Schema, []Config) {
	t.Helper()
	s, err := dataset.NewSchema([]dataset.Attribute{
		dataset.NumericAttr("x", 0, 10),
		dataset.NumericAttr("y", 0, 10),
	}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := noise.NewGaussian(1)
	if err != nil {
		t.Fatal(err)
	}
	return s, []Config{
		{Mode: core.Original, Intervals: 4},
		{Mode: core.ByClass, Intervals: 4, Noise: map[int]noise.Model{0: g}},
	}
}

// shardState accumulates 60 deterministic records under cfg and returns
// their wire state, as a shard worker would send it.
func shardState(t testing.TB, s *dataset.Schema, cfg Config) TrainStatsState {
	t.Helper()
	tb := dataset.NewTable(s)
	for i := 0; i < 60; i++ {
		x := float64(i%10) + 0.5
		if i%3 == 0 {
			x += 0.8 // class b sits a little higher on x
		}
		if err := tb.Append([]float64{x, float64(i*7%10) + 0.25}, boolInt(i%3 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := NewTrainStats(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := stream.FromTable(tb, 16)
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := ts.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return ts.State()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cloneState deep-copies a state through its wire form.
func cloneState(t *testing.T, st TrainStatsState) TrainStatsState {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var out TrainStatsState
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTrainStatsStateRejectsImpossibleCounts feeds NewTrainStatsFromState
// states no sequence of AddBatch calls can produce. Each must be rejected:
// accepted, they finalize into a model with priors outside [0,1] or
// conditionals that are not distributions.
func TestTrainStatsStateRejectsImpossibleCounts(t *testing.T) {
	s, cfgs := shardFixture(t)
	original, byClass := cfgs[0], cfgs[1]
	cases := []struct {
		name   string
		cfg    Config
		mutate func(*TrainStatsState)
	}{
		{"negative class count", original, func(st *TrainStatsState) {
			st.ClassCounts[1] += st.ClassCounts[0] + 50
			st.ClassCounts[0] = -50
		}},
		{"negative record count", original, func(st *TrainStatsState) {
			st.N, st.ClassCounts = -3, []int{-1, -2}
		}},
		{"class counts do not sum to n", original, func(st *TrainStatsState) { st.ClassCounts[0]++ }},
		{"negative interval mass", original, func(st *TrainStatsState) {
			row := st.Hist[0][1]
			row[0], row[1] = -1, row[1]+row[0]+1
		}},
		{"NaN interval mass", original, func(st *TrainStatsState) { st.Hist[1][0][2] = math.NaN() }},
		{"infinite interval mass", original, func(st *TrainStatsState) { st.Hist[1][0][2] = math.Inf(1) }},
		{"row mass differs from class count", original, func(st *TrainStatsState) { st.Hist[0][0][3]++ }},
		{"direct row of a reconstructed class short", byClass, func(st *TrainStatsState) { st.Hist[1][1][0]-- }},
		{"collector count differs from class count", byClass, func(st *TrainStatsState) {
			c := &st.Recon.ByClass[0][1]
			for idx := range c.Counts {
				c.Counts[idx]++
				c.N++
				break
			}
		}},
		{"collector range wider than its counts", byClass, func(st *TrainStatsState) { st.Recon.ByClass[0][0].MinIdx-- }},
	}
	for _, cfg := range cfgs {
		if _, err := NewTrainStatsFromState(s, cfg, shardState(t, s, cfg)); err != nil {
			t.Fatalf("mode %v: valid state rejected: %v", cfg.Mode, err)
		}
	}
	for _, tc := range cases {
		st := cloneState(t, shardState(t, s, tc.cfg))
		tc.mutate(&st)
		if _, err := NewTrainStatsFromState(s, tc.cfg, st); err == nil {
			t.Errorf("%s: state accepted", tc.name)
		}
	}
}

// FuzzTrainStatsState decodes arbitrary bytes as a shard worker's reply:
// NewTrainStatsFromState must reject the state or accept one whose Finalize
// yields a model with finite priors in [0,1], and must never panic.
func FuzzTrainStatsState(f *testing.F) {
	s, cfgs := shardFixture(f)
	for i, cfg := range cfgs {
		raw, err := json.Marshal(shardState(f, s, cfg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, uint8(i))
	}
	f.Fuzz(func(t *testing.T, raw []byte, which uint8) {
		cfg := cfgs[int(which)%len(cfgs)]
		var st TrainStatsState
		if err := json.Unmarshal(raw, &st); err != nil {
			return
		}
		ts, err := NewTrainStatsFromState(s, cfg, st)
		if err != nil {
			return
		}
		clf, err := ts.Finalize()
		if err != nil {
			return
		}
		for c, p := range clf.Priors {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("class %d prior %v outside [0,1]", c, p)
			}
		}
	})
}
