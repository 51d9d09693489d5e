package insight

import (
	"fmt"
	"sort"

	"github.com/insight-dublin/insight/gp"
)

// sortedKeys returns the keys of m in ascending order, for
// deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FlowEstimate is the city-wide traffic picture of Figure 9: the GP
// predictive mean at every street junction, with the junctions the
// model was conditioned on listed separately.
type FlowEstimate struct {
	// Values has one flow estimate per graph vertex.
	Values []float64
	// ObservedVertices are the junctions with at least one observation:
	// a sensor's latest reading or, when MapConfig.CrowdNoise > 0, a
	// crowd verdict's pseudo-reading. Sorted.
	ObservedVertices []int
	// Observations is the number of observations used, sensor readings
	// plus (when MapConfig.CrowdNoise > 0) crowd pseudo-readings, before
	// readings of the same junction are combined.
	Observations int
}

// MapConfig parameterizes FlowMap.
type MapConfig struct {
	// Alpha, Beta are the regularized-Laplacian hyperparameters.
	Alpha, Beta float64
	// SensorNoise is the observation noise variance σ² for SCATS
	// readings, in (veh/h)².
	SensorNoise float64
	// CrowdNoise, when positive, includes the latest crowdsourcing
	// verdicts as congestion pseudo-readings with this (larger)
	// variance — the paper's suggestion that "the traffic modelling
	// component may also use the crowdsourced information to resolve
	// data sparsity" (Section 1).
	CrowdNoise float64
}

// Flow pseudo-values assigned to crowd congestion verdicts, matching
// the synthetic city's flow calibration (congested branch ≈ 250 veh/h,
// free flow ≈ 1250 veh/h).
const (
	crowdCongestedFlow = 250
	crowdFreeFlow      = 1250
)

// FlowMap runs the traffic modelling component: the most recent
// reading of every SCATS sensor (aggregated per junction) — and,
// optionally, the latest crowd verdicts as noisier pseudo-readings —
// conditions a GP with the regularized Laplacian kernel, and the
// predictive mean is evaluated at every junction of the street
// network, including the large parts of the city with no sensors at
// all. The mean is one sparse solve over the street graph (gp.MeanAll):
// no kernel is built and nothing is cached between calls.
func (s *System) FlowMap(cfg MapConfig) (*FlowEstimate, error) {
	if len(s.lastTraffic) == 0 {
		return nil, fmt.Errorf("insight: no sensor readings ingested yet")
	}
	// Observations are assembled in sorted-key order: gp.MeanAll averages
	// duplicate vertices with float accumulation, so the observation
	// order must be run-stable for the flow estimates to be
	// bit-identical across runs.
	obs := make([]gp.Observation, 0, len(s.lastTraffic)+len(s.lastCrowd))
	for _, sensor := range sortedKeys(s.lastTraffic) {
		r := s.lastTraffic[sensor]
		obs = append(obs, gp.Observation{Vertex: r.vertex, Value: r.flow})
	}
	if cfg.CrowdNoise > 0 {
		for _, inter := range sortedKeys(s.lastCrowd) {
			c := s.lastCrowd[inter]
			value := float64(crowdFreeFlow)
			if c.congested {
				value = crowdCongestedFlow
			}
			obs = append(obs, gp.Observation{Vertex: c.vertex, Value: value, Noise: cfg.CrowdNoise})
		}
	}
	values, observed, err := gp.MeanAll(s.city.Graph(), cfg.Alpha, cfg.Beta, obs, cfg.SensorNoise)
	if err != nil {
		return nil, err
	}
	return &FlowEstimate{
		Values:           values,
		ObservedVertices: observed,
		Observations:     len(obs),
	}, nil
}
