package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics a run prints in
// step with the lists BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	b := newBench(config{}, &sensorFeed{})
	ws := &windowStats{elapsed: time.Second}
	e2e := b.endToEnd(ws, []float64{1})
	layers := b.layerMetrics(ws, ws)
	check := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, a run prints %d", kind, len(want), len(got))
		}
		for _, m := range want {
			g, ok := got[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is not printed", kind, m.Name)
			case g.Unit != m.Unit:
				t.Errorf("%s: %s printed in %s, declared in %s", kind, m.Name, g.Unit, m.Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2e)
	check("per_layer", doc.PerLayer, layers)
}
