package dublin

import (
	"fmt"
	"sort"
	"strings"

	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// Stats summarises a generated stream segment, for checking the
// synthetic substitute against the dataset characteristics the paper
// reports (Section 7: 942 buses emitting every 20–30 s — "on average,
// the bus dataset has a new SDE every 2 seconds" — and 966 SCATS
// sensors emitting every 6 minutes).
type Stats struct {
	From, Until rtec.Time
	BusEvents   int
	ScatsEvents int
	// DistinctBuses / DistinctSensors count the entities that
	// actually emitted.
	DistinctBuses   int
	DistinctSensors int
	// MeanBusInterarrival is the average gap between consecutive bus
	// SDEs across the whole fleet, in seconds.
	MeanBusInterarrival float64
	// MeanBusPeriod is the average per-bus emission period, seconds.
	MeanBusPeriod float64
	// MeanScatsPeriod is the average per-sensor emission period.
	MeanScatsPeriod float64
	// CongestedReports counts bus SDEs reporting congestion.
	CongestedReports int
	// MaxDelay is the largest mediator arrival delay observed.
	MaxDelay rtec.Time
}

// ComputeStats scans a stream segment (any order).
func ComputeStats(sdes []SDE) Stats {
	var s Stats
	if len(sdes) == 0 {
		return s
	}
	s.From, s.Until = sdes[0].Event.Time, sdes[0].Event.Time
	busTimes := make(map[string][]rtec.Time)
	sensorTimes := make(map[string][]rtec.Time)
	var allBusTimes []rtec.Time
	for _, sde := range sdes {
		e := sde.Event
		if e.Time < s.From {
			s.From = e.Time
		}
		if e.Time > s.Until {
			s.Until = e.Time
		}
		if d := sde.Arrival - e.Time; d > s.MaxDelay {
			s.MaxDelay = d
		}
		switch e.Type {
		case traffic.MoveType:
			s.BusEvents++
			busTimes[e.Key] = append(busTimes[e.Key], e.Time)
			allBusTimes = append(allBusTimes, e.Time)
			if c, _ := e.Bool("congested"); c {
				s.CongestedReports++
			}
		case traffic.TrafficType:
			s.ScatsEvents++
			sensorTimes[e.Key] = append(sensorTimes[e.Key], e.Time)
		}
	}
	s.DistinctBuses = len(busTimes)
	s.DistinctSensors = len(sensorTimes)
	s.MeanBusPeriod = meanPeriod(busTimes)
	s.MeanScatsPeriod = meanPeriod(sensorTimes)
	if len(allBusTimes) > 1 {
		span := s.Until - s.From
		s.MeanBusInterarrival = float64(span) / float64(len(allBusTimes)-1)
	}
	return s
}

func meanPeriod(times map[string][]rtec.Time) float64 {
	var total float64
	var n int
	for _, ts := range times {
		// The input may be ordered by arrival rather than
		// occurrence; sort before differencing.
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for i := 1; i < len(ts); i++ {
			total += float64(ts[i] - ts[i-1])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// String renders the stats as a small report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream [%d, %d] (%d s)\n", int64(s.From), int64(s.Until), int64(s.Until-s.From))
	fmt.Fprintf(&b, "  bus SDEs:    %d from %d buses (period %.1f s, fleet inter-arrival %.2f s)\n",
		s.BusEvents, s.DistinctBuses, s.MeanBusPeriod, s.MeanBusInterarrival)
	fmt.Fprintf(&b, "  SCATS SDEs:  %d from %d sensors (period %.1f s)\n",
		s.ScatsEvents, s.DistinctSensors, s.MeanScatsPeriod)
	fmt.Fprintf(&b, "  congested bus reports: %d (%.1f%%)\n",
		s.CongestedReports, 100*float64(s.CongestedReports)/float64(max(1, s.BusEvents)))
	fmt.Fprintf(&b, "  max mediator delay: %d s\n", int64(s.MaxDelay))
	return b.String()
}
