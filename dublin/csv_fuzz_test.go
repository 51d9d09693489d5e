package dublin

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/streams"
)

// FuzzReplayCSV holds the recorded-stream path — what a System.Pipeline
// replay is fed from disk — to its contract on arbitrary bytes: the CSV readers
// never panic; whatever SDEs they hand back, BatchSDEs either refuses
// them or yields transport batches that pass Batch.Check with
// non-decreasing arrivals (what the pipeline's validator demands of
// every envelope); and releasing those gives every pooled buffer back.
func FuzzReplayCSV(f *testing.F) {
	// A cmd/datagen excerpt: two minutes of a small city, both files.
	city, err := NewCity(Config{Seed: 42, NumBuses: 6, NumSensors: 6})
	if err != nil {
		f.Fatal(err)
	}
	recorded := city.Collect(7*3600, 7*3600+120)
	var bus, scats bytes.Buffer
	if err := WriteBusCSV(&bus, recorded); err != nil {
		f.Fatal(err)
	}
	if err := WriteScatsCSV(&scats, recorded); err != nil {
		f.Fatal(err)
	}
	f.Add(bus.Bytes())
	f.Add(scats.Bytes())
	f.Add(bus.Bytes()[:bus.Len()-7]) // truncated row
	busHead, scatsHead := strings.Join(busHeader, ",")+"\n", strings.Join(scatsHeader, ",")+"\n"
	f.Add([]byte(busHead + "25200,bus33001,46A,DB,12,-6.26x,53.35,1,0,25203\n"))              // non-numeric coordinate
	f.Add([]byte(busHead + "25200,bus33001,46A,DB,12,-6.26,53.35,1,0,-5\n"))                  // negative arrival
	f.Add([]byte(scatsHead + "25200,s1,int0001,N,NaN,Inf,-6.26,53.35,25201\n"))               // non-finite readings
	f.Add([]byte(scatsHead + "25200,s1,int0001,N,20,600,1e308,-1e308,9223372036854775807\n")) // far-out position and arrival
	f.Add([]byte(busHead))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		before := streams.LiveBatches()
		buses, _ := ReadBusCSV(bytes.NewReader(data))
		sensors, _ := ReadScatsCSV(bytes.NewReader(data))
		batched, err := BatchSDEs(append(buses, sensors...), 4, 30)
		if err == nil {
			for _, bs := range batched {
				for _, b := range bs.Batches {
					if err := b.Check(); err != nil {
						t.Errorf("stream %s: %v", bs.ID, err)
					}
					if !slices.IsSorted(b.Arrivals) {
						t.Errorf("stream %s: arrivals decrease: %v", bs.ID, b.Arrivals)
					}
					b.Release()
				}
			}
		}
		if live := streams.LiveBatches(); live != before {
			t.Errorf("live batches = %d, want %d", live, before)
		}
	})
}
