// Sharded decomposition of the Dublin rule set. The N-way recognition
// tier (root package) replicates sensor and crowd SDEs to every shard
// and routes each bus's move events to the shard owning the bus. Under
// that input contract the rule set splits exactly:
//
//   - sensor- and crowd-driven CEs (scatsCongestion, the intersection
//     hierarchy, unusualCongestion, noisyScats) read only replicated
//     inputs, so every shard computes identical instances and the
//     merge is idempotent (interval union of equal lists);
//   - per-entity CEs keyed by an owned entity (noisy, delayIncrease,
//     disagree/agree, flow/density trends, congestionInTheMake) are
//     computed only in the owner shard, which holds every input the
//     single engine would use for that entity;
//   - busCongestion aggregates buses across shards, so every shard runs
//     the single engine's rule as a partial fluent (rtec.SimpleFluent.
//     Partial) over its own buses and hands out the transition points it
//     derives; the tier folds the shards' points together
//     (rtec.FoldTransitions) with inertia state it owns — the union of
//     the shards' points over a window is the single engine's point set,
//     and a fluent's intervals depend on nothing else — and then takes
//     sourceDisagreement as a relative complement of the folded fluent.
//
// The equivalence of this decomposition against the single-engine rule
// set — at every shard count, both store kinds, under chaos — is pinned
// by the shard-equivalence grid in the root package.
package traffic

import (
	"fmt"

	"github.com/insight-dublin/insight/rtec"
)

// ShardPlan scopes one shard's rule build.
type ShardPlan struct {
	// OwnsSensor reports whether this shard owns a SCATS sensor key.
	// Sensor-keyed per-entity fluents (flowTrend, densityTrend,
	// congestionInTheMake) are computed only for owned sensors, so each
	// instance lives in exactly one shard. Required; it is called during
	// concurrent shard evaluation and must be safe for concurrent use
	// and stable between rebalances.
	OwnsSensor func(sensor string) bool
}

// BuildShard compiles the shard-local Dublin rule set: the single-
// engine set with owner-scoped sensor fluents, busCongestion partial
// (its transition points are the output, folded by the tier) and
// sourceDisagreement left to the tier.
func BuildShard(cfg Config, plan ShardPlan) (*rtec.Definitions, error) {
	if plan.OwnsSensor == nil {
		return nil, fmt.Errorf("traffic: ShardPlan.OwnsSensor is required")
	}
	return buildRules(cfg, &plan, nil)
}

// OwnerScopedFluents lists the simple fluents whose instances live only
// in the shard owning their key (a bus or a sensor). Rebalancing moves
// exactly these instances with a migrated key; every other fluent is
// either computed identically in all shards (sensor aggregates over
// replicated inputs) or folded by the tier and keyed by area.
func OwnerScopedFluents() []string {
	return []string{Noisy, FlowTrend, DensityTrend, CongestionInMake}
}
