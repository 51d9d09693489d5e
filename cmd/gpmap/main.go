// Command gpmap regenerates Figures 7-9 of the paper: the Dublin
// street network (Figure 7 is the raw map, Figure 8 the extracted
// graph with SCATS locations as black dots, Figure 9 the Gaussian
// Process traffic-flow estimates shaded green → red).
//
// It emits SVG files:
//
//	fig7-8_network.svg     street network with SCATS sensor dots
//	fig9_estimates.svg     GP flow estimates at every junction
//	fig9b_uncertainty.svg  their predictive standard deviation
//
// Both maps are solved against the model's sparse precision
// (gp.MeanAll, gp.VarianceAll); no dense kernel is built.
//
// Usage:
//
//	gpmap [-out .] [-sensors 966] [-hour 8] [-grid 4] [-alpha 0] [-beta 0]
//
// With -alpha and -beta left at 0 the hyperparameters are chosen by
// grid search within [0, 10] (the paper's procedure); pass both to skip
// the search. Passing only one is an error.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/gp"
	"github.com/insight-dublin/insight/rtec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpmap: ")
	var (
		outDir  = flag.String("out", ".", "output directory")
		sensors = flag.Int("sensors", 966, "SCATS sensor count")
		hour    = flag.Float64("hour", 8, "time of day for the snapshot (hours)")
		grid    = flag.Int("grid", 4, "grid-search points per hyperparameter axis")
		alpha   = flag.Float64("alpha", 0, "kernel alpha (0 = grid search)")
		beta    = flag.Float64("beta", 0, "kernel beta (0 = grid search)")
		noise   = flag.Float64("noise", 2500, "observation noise variance σ²")
		seed    = flag.Int64("seed", 1, "city seed")
	)
	flag.Parse()
	search, err := gridSearchWanted(*alpha, *beta)
	if err != nil {
		log.Fatal(err)
	}

	city, err := dublin.NewCity(dublin.Config{Seed: *seed, NumBuses: 1, NumSensors: *sensors})
	if err != nil {
		log.Fatal(err)
	}
	g := city.Graph()
	fmt.Printf("street network: %d junctions, %d segments (synthetic OSM substitute)\n",
		g.NumVertices(), g.NumEdges())

	// Figures 7-8: the network with SCATS locations as black dots.
	sensorVertices, obs := observations(city, rtec.Time(*hour*3600))
	if err := renderSVG(filepath.Join(*outDir, "fig7-8_network.svg"), g, citygraph.RenderOptions{
		Sensors: sensorVertices,
		Title: fmt.Sprintf("Street network and SCATS locations (%d sensors on %d junctions)",
			len(city.Sensors()), len(sensorVertices)),
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("observations: %d junctions with sensors (of %d)\n", len(obs), g.NumVertices())

	// Hyperparameters: explicit or by grid search within [0, 10].
	a, b := *alpha, *beta
	if search {
		gridVals := gp.DefaultGrid(*grid)
		res, err := gp.GridSearch(g, obs, gridVals, gridVals, *noise, 4, *seed)
		if err != nil {
			log.Fatal(err)
		}
		a, b = res.Alpha, res.Beta
		fmt.Printf("grid search: alpha=%.2f beta=%.2f (CV RMSE %.1f over %d candidates)\n",
			a, b, res.RMSE, res.Evaluated)
	}

	values, stddev, err := flowMaps(g, a, b, obs, *noise)
	if err != nil {
		log.Fatal(err)
	}

	// Figure 9: green = low flow estimate, red = high.
	if err := renderSVG(filepath.Join(*outDir, "fig9_estimates.svg"), g, citygraph.RenderOptions{
		Values:  values,
		Sensors: sensorVertices,
		Title: fmt.Sprintf("GP traffic flow estimates at %02.0f:00 (alpha=%.2f beta=%.2f)",
			*hour, a, b),
	}); err != nil {
		log.Fatal(err)
	}

	// Companion uncertainty map: predictive standard deviation per
	// junction — green where the model is confident (near sensors),
	// red in the sparsely covered areas the component exists for.
	if err := renderSVG(filepath.Join(*outDir, "fig9b_uncertainty.svg"), g, citygraph.RenderOptions{
		Values:  stddev,
		Sensors: sensorVertices,
		Title:   "GP predictive uncertainty (red = sparse coverage)",
	}); err != nil {
		log.Fatal(err)
	}

	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	fmt.Printf("flow estimates: min %.0f, max %.0f veh/h across %d junctions\n", lo, hi, len(values))
	fmt.Printf("wrote %s, %s and %s\n",
		filepath.Join(*outDir, "fig7-8_network.svg"),
		filepath.Join(*outDir, "fig9_estimates.svg"),
		filepath.Join(*outDir, "fig9b_uncertainty.svg"))
}

// gridSearchWanted reports whether the -alpha and -beta flags leave the
// hyperparameters to the grid search: both at 0. Setting only one is an
// error naming the missing flag, since the search would discard it.
func gridSearchWanted(alpha, beta float64) (bool, error) {
	switch {
	case alpha == 0 && beta == 0:
		return true, nil
	case beta == 0:
		return false, fmt.Errorf("missing -beta: -alpha %v sets only one hyperparameter (pass both, or neither to grid-search)", alpha)
	case alpha == 0:
		return false, fmt.Errorf("missing -alpha: -beta %v sets only one hyperparameter (pass both, or neither to grid-search)", beta)
	}
	return false, nil
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

func renderSVG(path string, g *citygraph.Graph, opts citygraph.RenderOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.RenderSVG(f, opts); err != nil {
		return err
	}
	return f.Close()
}
