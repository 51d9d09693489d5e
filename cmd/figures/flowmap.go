package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/gp"
	"github.com/insight-dublin/insight/rtec"
)

// figure9 regenerates Figures 7–9: the street network with the SCATS
// locations as black dots (Figures 7–8), the Gaussian Process flow
// estimates at every junction shaded green → red (Figure 9) and their
// predictive standard deviation, written as SVGs into the table's
// directory. The hyperparameters are chosen by a 4×4 grid search within
// [0, 10] (the paper's procedure); both maps are solved against the
// model's sparse precision (gp.MeanAll, gp.VarianceAll).
func figure9(t *table) error {
	const seed, hour, grid, noise = 1, 8.0, 4, 2500 // noise: the observation noise variance σ²
	city, err := dublin.NewCity(dublin.Config{Seed: seed, NumBuses: 1, NumSensors: 966})
	if err != nil {
		return err
	}
	g := city.Graph()
	sensorVertices, obs := observations(city, rtec.Time(hour*3600))
	gridVals := gp.DefaultGrid(grid)
	res, err := gp.GridSearch(g, obs, gridVals, gridVals, noise, 4, seed)
	if err != nil {
		return err
	}
	values, stddev, err := flowMaps(g, res.Alpha, res.Beta, obs, noise)
	if err != nil {
		return err
	}

	for _, m := range []struct {
		file, title string
		values      []float64 // shaded green (low) → red (high); nil: the bare network
	}{
		{"fig7-8_network.svg", fmt.Sprintf("Street network and SCATS locations (%d sensors on %d junctions)",
			len(city.Sensors()), len(sensorVertices)), nil},
		{"fig9_estimates.svg", fmt.Sprintf("GP traffic flow estimates at %02.0f:00 (alpha=%.2f beta=%.2f)",
			hour, res.Alpha, res.Beta), values},
		// Green where the model is confident (near sensors), red in the
		// sparsely covered areas the component exists for.
		{"fig9b_uncertainty.svg", "GP predictive uncertainty (red = sparse coverage)", stddev},
	} {
		var svg bytes.Buffer
		if err := g.RenderSVG(&svg, citygraph.RenderOptions{Values: m.values, Sensors: sensorVertices, Title: m.title}); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(t.dir, m.file), svg.Bytes(), 0o644); err != nil {
			return err
		}
	}

	fmt.Fprintf(t.out, "Figures 7–9 — street network and GP traffic-flow estimates at %02.0f:00\n", hour)
	fmt.Fprintf(t.out, "%d SCATS sensors, %d×%d grid search within [0, 10], σ² = %d, seed %d\n\n", len(city.Sensors()), grid, grid, noise, seed)
	w := t.grid("figure\tquantity\tvalue")
	row := func(name, metric, format string, v float64) {
		fmt.Fprintf(w, "%s\t%s\t%s\n", name, metric, t.score(name, metric, format, v))
	}
	row("network", "junctions", "%.0f", float64(g.NumVertices()))
	row("network", "segments", "%.0f", float64(g.NumEdges()))
	row("network", "observed junctions", "%.0f", float64(len(obs)))
	row("grid search", "alpha", "%.2f", res.Alpha)
	row("grid search", "beta", "%.2f", res.Beta)
	row("grid search", "CV RMSE", "%.3f", res.RMSE)
	row("flow map", "min veh/h", "%.1f", slices.Min(values))
	row("flow map", "max veh/h", "%.1f", slices.Max(values))
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(t.out, "\nnetwork: synthetic OSM substitute; CV RMSE over %d candidates; maps written into %s\n", res.Evaluated, t.dir)
	return nil
}

// observations aggregates one emission round of sensor readings at time
// at ("the sensor readings are aggregated within fixed time intervals"):
// the junctions with sensors in sensor order, and one observation per
// junction, the mean of its sensors' flows — in sensor order, not map
// order, since the grid search's fold assignment is a seeded
// permutation of the observations.
func observations(city *dublin.City, at rtec.Time) ([]int, []gp.Observation) {
	var vertices []int
	perVertex := make(map[int][]float64)
	for i := range city.Sensors() {
		s := &city.Sensors()[i]
		if _, ok := perVertex[s.Vertex]; !ok {
			vertices = append(vertices, s.Vertex)
		}
		_, flow := city.SensorReading(s, at)
		perVertex[s.Vertex] = append(perVertex[s.Vertex], flow)
	}
	obs := make([]gp.Observation, 0, len(vertices))
	for _, v := range vertices {
		flows := perVertex[v]
		var sum float64
		for _, f := range flows {
			sum += f
		}
		obs = append(obs, gp.Observation{Vertex: v, Value: sum / float64(len(flows))})
	}
	return vertices, obs
}

// flowMaps returns Figure 9's two maps, both solved against the sparse
// precision: the posterior mean flow at every junction and its
// predictive standard deviation.
func flowMaps(g *citygraph.Graph, alpha, beta float64, obs []gp.Observation, noise float64) (mean, stddev []float64, err error) {
	mean, _, err = gp.MeanAll(g, alpha, beta, obs, noise)
	if err != nil {
		return nil, nil, err
	}
	stddev, err = gp.VarianceAll(g, alpha, beta, obs, noise)
	if err != nil {
		return nil, nil, err
	}
	for i, v := range stddev {
		stddev[i] = math.Sqrt(v)
	}
	return mean, stddev, nil
}
