package main

import (
	"math"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/gp"
	"github.com/insight-dublin/insight/rtec"
)

// TestFigure9MatchesDense runs figure9's computation with its constants —
// seed 1, 966 sensors, 08:00, a 4×4 grid, σ² = 2500 — and holds the
// grid search to the (α, β) and CV RMSE it has always selected, and both
// sparse maps to the dense kernel's Fit + Predict, each within 1e-9 of
// that map's largest value.
func TestFigure9MatchesDense(t *testing.T) {
	const noise = 2500
	city, err := dublin.NewCity(dublin.Config{Seed: 1, NumBuses: 1, NumSensors: 966})
	if err != nil {
		t.Fatal(err)
	}
	g := city.Graph()
	_, obs := observations(city, rtec.Time(8*3600))
	grid := gp.DefaultGrid(4)
	res, err := gp.GridSearch(g, obs, grid, grid, noise, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alpha != 10 || res.Beta != 2.5 || math.Abs(res.RMSE-177.403852231676) > 1e-9*177.4 { //lint:allow floateq grid points are chosen, not computed
		t.Errorf("grid search selects α=%v β=%v with CV RMSE %.15g, want α=10 β=2.5 with 177.403852231676", res.Alpha, res.Beta, res.RMSE)
	}
	mean, stddev, err := flowMaps(g, res.Alpha, res.Beta, obs, noise)
	if err != nil {
		t.Fatal(err)
	}

	kernel, err := gp.RegularizedLaplacian(g, res.Alpha, res.Beta)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := gp.Fit(kernel, obs, noise)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, g.NumVertices())
	for i := range all {
		all[i] = i
	}
	wantMean, variance, err := reg.Predict(all)
	if err != nil {
		t.Fatal(err)
	}
	wantStd := make([]float64, len(variance))
	for i, v := range variance {
		wantStd[i] = math.Sqrt(v)
	}
	for _, m := range []struct {
		name      string
		got, want []float64
	}{{"mean", mean, wantMean}, {"standard deviation", stddev, wantStd}} {
		var top, diff float64
		for v := range m.want {
			top = math.Max(top, math.Abs(m.want[v]))
			diff = math.Max(diff, math.Abs(m.got[v]-m.want[v]))
		}
		if !(diff <= 1e-9*top) {
			t.Errorf("%s map differs from the dense one by %.3g, %.3g of its largest value", m.name, diff, diff/top)
		}
	}
}
