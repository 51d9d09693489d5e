// Sparsitymap: the traffic modelling component in isolation. Sensor
// readings from the synthetic SCATS deployment condition a Gaussian
// Process with the regularized Laplacian kernel; the program prints a
// comparison of estimated vs true flow at junctions WITHOUT sensors
// (the whole point of the component) and renders the Figure 9 style
// city map as SVG.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/gp"
	"github.com/insight-dublin/insight/rtec"
)

func main() {
	log.SetFlags(0)

	city, err := dublin.NewCity(dublin.Config{Seed: 3, NumBuses: 1, NumSensors: 300})
	if err != nil {
		log.Fatal(err)
	}
	g := city.Graph()
	at := rtec.Time(8 * 3600) // morning rush snapshot

	// Observations: one aggregated reading per sensor-carrying junction,
	// in sensor order, not map order: the grid search's fold assignment
	// is a seeded permutation of this slice.
	perVertex := map[int][]float64{}
	var sensorVertices []int
	for i := range city.Sensors() {
		s := &city.Sensors()[i]
		_, flow := city.SensorReading(s, at)
		if _, seen := perVertex[s.Vertex]; !seen {
			sensorVertices = append(sensorVertices, s.Vertex)
		}
		perVertex[s.Vertex] = append(perVertex[s.Vertex], flow)
	}
	var obs []gp.Observation
	for _, v := range sensorVertices {
		flows := perVertex[v]
		var sum float64
		for _, f := range flows {
			sum += f
		}
		obs = append(obs, gp.Observation{Vertex: v, Value: sum / float64(len(flows))})
	}
	fmt.Printf("street network: %d junctions; sensors cover %d (%.0f%%)\n",
		g.NumVertices(), len(obs), 100*float64(len(obs))/float64(g.NumVertices()))

	// Hyperparameters by grid search in [0, 10] (the paper's choice).
	grid := gp.DefaultGrid(4)
	search, err := gp.GridSearch(g, obs, grid, grid, 2500, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid search picked alpha=%.2f beta=%.2f (CV RMSE %.0f veh/h)\n",
		search.Alpha, search.Beta, search.RMSE)

	est, _, err := gp.MeanAll(g, search.Alpha, search.Beta, obs, 2500)
	if err != nil {
		log.Fatal(err)
	}

	// Score the estimates at UNOBSERVED junctions against ground truth.
	observed := map[int]bool{}
	for _, v := range sensorVertices {
		observed[v] = true
	}
	var mae, baselineMAE float64
	var meanFlow float64
	for _, o := range obs {
		meanFlow += o.Value
	}
	meanFlow /= float64(len(obs))
	n := 0
	for v := 0; v < g.NumVertices(); v++ {
		if observed[v] {
			continue
		}
		intensity := city.CongestionAt(g.Vertex(v).Pos, at)
		truth := 1500 - 1300*intensity
		mae += math.Abs(est[v] - truth)
		baselineMAE += math.Abs(meanFlow - truth)
		n++
	}
	mae /= float64(n)
	baselineMAE /= float64(n)
	fmt.Printf("unobserved junctions: %d\n", n)
	fmt.Printf("GP mean absolute error:        %.0f veh/h\n", mae)
	fmt.Printf("city-mean baseline error:      %.0f veh/h\n", baselineMAE)
	fmt.Printf("improvement over the baseline: %.0f%%\n", 100*(1-mae/baselineMAE))

	// Kernel ablation: the p-step random-walk kernel from the same
	// Smola & Kondor family the paper cites. Its support is local
	// (radius p), so it reverts to the mean in sensor deserts where
	// the regularized Laplacian still propagates.
	walkKernel, err := gp.RandomWalkKernel(g, 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	walkReg, err := gp.Fit(walkKernel, obs, 2500)
	if err != nil {
		log.Fatal(err)
	}
	walkEst, err := walkReg.PredictAll()
	if err != nil {
		log.Fatal(err)
	}
	var walkMAE float64
	for v := 0; v < g.NumVertices(); v++ {
		if observed[v] {
			continue
		}
		intensity := city.CongestionAt(g.Vertex(v).Pos, at)
		walkMAE += math.Abs(walkEst[v] - (1500 - 1300*intensity))
	}
	walkMAE /= float64(n)
	fmt.Printf("random-walk kernel (p=3) MAE:  %.0f veh/h (local support)\n", walkMAE)

	// Render the Figure 9 style map.
	f, err := os.Create("sparsity_map.svg")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := g.RenderSVG(f, citygraph.RenderOptions{
		Values:  est,
		Sensors: sensorVertices,
		Title:   "GP traffic flow estimates (green = free flow, red = congested)",
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote sparsity_map.svg")
}
