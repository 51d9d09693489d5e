package dublin

import "github.com/insight-dublin/insight/citygraph"

// Profile10x returns a city configuration at roughly ten times the
// paper's Dublin deployment: a street network with ~10× the junctions
// (the same bounding window, denser grid), 9420 buses and 9660 SCATS
// sensors instead of 942/966, and proportionally more congestion
// hotspots. This is the scale-out profile the sharded recognition tier
// is benchmarked on (cmd/e2ebench, workload dublin10x-recognize).
func Profile10x(seed int64) Config {
	return Config{
		Seed:       seed,
		NumBuses:   9420,
		NumSensors: 9660,
		Hotspots:   400,
		Graph: citygraph.GenerateDublin(citygraph.DublinConfig{
			GridX: 114,
			GridY: 70,
			Seed:  seed,
		}),
	}
}
