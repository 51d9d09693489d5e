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
//   - busCongestion aggregates buses across shards, so shards emit
//     busCongVote events (BuildShard) and a reduce engine folds them
//     into the fluent (BuildReduce); sourceDisagreement is then a
//     relative complement the tier computes from the reduced fluent.
//
// The equivalence of this decomposition against the single-engine rule
// set — at every shard count, both store kinds, under chaos — is pinned
// by the shard-equivalence grid in the root package.
package traffic

import (
	"fmt"
	"strings"

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

// VoteSep separates the bus and area components of a busCongVote key.
// US (unit separator) cannot occur in entity IDs.
const VoteSep = "\x1f"

// VoteKey builds the busCongVote event key for one (bus, area) match.
// Keying votes by the pair keeps derived-event identities unique, and
// the bus prefix is what migration uses to move a bus's vote dedup
// state between shards.
func VoteKey(bus, area string) string { return bus + VoteSep + area }

// VoteBus returns the bus component of a busCongVote key, or the whole
// key if it has no separator.
func VoteBus(key string) string {
	if i := strings.Index(key, VoteSep); i >= 0 {
		return key[:i]
	}
	return key
}

// NewVoteBlock starts a block of busCongVote events; fill it with
// AddVote. Shard rules derive their votes into one, and the tier hands
// the reduce engine each boundary's fresh votes as one.
func NewVoteBlock() *rtec.EventBlock {
	return rtec.NewEventBlock(BusCongVote,
		rtec.BCol{Name: "area", Kind: rtec.ColStr}, rtec.BCol{Name: "congested", Kind: rtec.ColBool})
}

// AddVote appends one vote — key is VoteKey(bus, area) — to a block
// started by NewVoteBlock.
func AddVote(b *rtec.EventBlock, t rtec.Time, key, area string, congested bool) {
	b.Add(t, key)
	b.Str(0, area)
	b.Bool(1, congested)
}

// BuildShard compiles the shard-local Dublin rule set: the single-
// engine set with owner-scoped sensor fluents, busCongestion replaced
// by busCongVote emission, and sourceDisagreement left to the tier.
func BuildShard(cfg Config, plan ShardPlan) (*rtec.Definitions, error) {
	if plan.OwnsSensor == nil {
		return nil, fmt.Errorf("traffic: ShardPlan.OwnsSensor is required")
	}
	return buildRules(cfg, &plan, nil)
}

// BuildReduce compiles the reduce-stage rule set: busCongVote events in,
// the busCongestion fluent out. A vote's time equals its source move
// event's time and its polarity equals the move's congestion flag, so
// the transition set this fluent derives over any window is exactly the
// transition set the single-engine busCongestion rule derives — late
// votes ride the engine's normal dirty-watermark path.
func BuildReduce(cfg Config) (*rtec.Definitions, error) {
	cfg = cfg.withDefaults()
	b := rtec.NewBuilder().DeclareSDE(BusCongVote)
	b.Simple(rtec.SimpleFluent{
		Name:     BusCongestion,
		Inputs:   []string{BusCongVote},
		Locality: rtec.Pointwise(), // one vote at T is one transition at T
		Transitions: func(ctx *rtec.Context) []rtec.Transition {
			var out []rtec.Transition
			rows := ctx.Rows(BusCongVote)
			for i := 0; i < rows.Len(); i++ {
				e := rows.At(i)
				area, ok := e.Str("area")
				if !ok {
					continue
				}
				if congested, _ := e.Bool("congested"); congested {
					out = append(out, rtec.InitiateAt(area, e.Time))
				} else {
					out = append(out, rtec.TerminateAt(area, e.Time))
				}
			}
			return out
		},
	})
	return b.Compile()
}

// OwnerScopedFluents lists the simple fluents whose instances live only
// in the shard owning their key (a bus or a sensor). Rebalancing moves
// exactly these instances with a migrated key; every other fluent is
// either computed identically in all shards (sensor aggregates over
// replicated inputs) or owned by the reduce engine.
func OwnerScopedFluents() []string {
	return []string{Noisy, FlowTrend, DensityTrend, CongestionInMake}
}
