package eval

import (
	"math"
	"testing"

	"github.com/insight-dublin/insight/interval"
)

func sp(a, b interval.Time) interval.Span { return interval.Span{Start: a, End: b} }

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 4, TN: 86}
	if got := c.Precision(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Precision = %v, want 0.8", got)
	}
	if got := c.Recall(); math.Abs(got-8.0/12) > 1e-12 {
		t.Errorf("Recall = %v", got)
	}
	wantF1 := 2 * 0.8 * (8.0 / 12) / (0.8 + 8.0/12)
	if got := c.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
	if got := c.Accuracy(); math.Abs(got-0.94) > 1e-12 {
		t.Errorf("Accuracy = %v, want 0.94", got)
	}
	if c.Samples() != 100 {
		t.Errorf("Samples = %d", c.Samples())
	}
	if c.String() == "" {
		t.Error("String empty")
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 1 || c.Recall() != 1 || c.Accuracy() != 1 {
		t.Error("empty confusion must default to perfect scores")
	}
	if c.F1() != 1 {
		t.Errorf("empty F1 = %v, want 1", c.F1())
	}
	all0 := Confusion{TN: 10}
	if all0.Precision() != 1 || all0.Recall() != 1 {
		t.Error("all-negative confusion should not divide by zero")
	}
	bad := Confusion{FP: 5, FN: 5}
	if bad.F1() != 0 {
		t.Errorf("zero-TP F1 = %v, want 0", bad.F1())
	}
}

func TestTimelineUnions(t *testing.T) {
	tl := NewTimeline()
	tl.Add("a", interval.List{sp(0, 10)})
	tl.Add("a", interval.List{sp(5, 20)}) // overlapping view from the next window
	tl.Add("b", interval.List{sp(100, 110)})
	tl.Add("c", nil) // no-op
	if got := tl.Get("a"); !got.Equal(interval.List{sp(0, 20)}) {
		t.Errorf("a = %v", got)
	}
	if got := tl.Get("b"); !got.Equal(interval.List{sp(100, 110)}) {
		t.Errorf("b = %v", got)
	}
	if len(tl.spans) != 2 {
		t.Errorf("keys = %v", tl.spans)
	}
	if tl.Get("missing") != nil {
		t.Error("missing key must be empty")
	}
}

func TestScore(t *testing.T) {
	// Truth: key "x" congested during [10, 20); prediction covers
	// [15, 25). Sampled at step 1 over [0, 30): TP = 5 (15..19),
	// FP = 5 (20..24), FN = 5 (10..14), TN = 15.
	pred := func(key string) interval.List {
		if key == "x" {
			return interval.List{sp(15, 25)}
		}
		return nil
	}
	truth := func(key string, tm interval.Time) bool {
		return key == "x" && tm >= 10 && tm < 20
	}
	c, err := Score([]string{"x"}, pred, truth, sp(0, 30), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Confusion{TP: 5, FP: 5, FN: 5, TN: 15}
	if c != want {
		t.Errorf("Score = %+v, want %+v", c, want)
	}
}

func TestScoreMultipleKeysAndStep(t *testing.T) {
	pred := func(key string) interval.List {
		if key == "hit" {
			return interval.List{sp(0, 100)}
		}
		return nil
	}
	truth := func(key string, tm interval.Time) bool { return key == "hit" }
	c, err := Score([]string{"hit", "miss"}, pred, truth, sp(0, 100), 10)
	if err != nil {
		t.Fatal(err)
	}
	// 10 samples per key: "hit" all TP, "miss" all TN.
	if c.TP != 10 || c.TN != 10 || c.FP != 0 || c.FN != 0 {
		t.Errorf("Score = %+v", c)
	}
}

func TestScoreValidation(t *testing.T) {
	pred := func(string) interval.List { return nil }
	truth := func(string, interval.Time) bool { return false }
	if _, err := Score(nil, pred, truth, sp(0, 10), 0); err == nil {
		t.Error("zero step must error")
	}
	if _, err := Score(nil, pred, truth, sp(10, 10), 1); err == nil {
		t.Error("empty span must error")
	}
}
