package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json at the repository
// root and the metric tables of this program in step: same names, same
// units, same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		json []metric
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
