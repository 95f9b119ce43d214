package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

func TestStreamDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a := streamDigest(w.name, 7, clients, 5000)
		if b := streamDigest(w.name, 7, clients, 5000); a != b {
			t.Errorf("%s: seed 7 gave digests %016x and %016x", w.name, a, b)
		}
		if c := streamDigest(w.name, 8, clients, 5000); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %016x", w.name, a)
		}
	}
}

func TestStreamsStayInRange(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < clients; c++ {
			s := newStream(w.name, 3, c)
			kinds := map[opKind]int{}
			for i := 0; i < 20000; i++ {
				o := s.next()
				kinds[o.kind]++
				switch w.name {
				case "cached-read":
					if o.key < 0 || o.key >= cachedReadKeys {
						t.Fatalf("%s: key %d out of range", w.name, o.key)
					}
				case "durable-write":
					if o.key < 0 || o.key >= durableKeys || (o.kind == opPut && o.key%clients != c) {
						t.Fatalf("%s client %d: op %+v", w.name, c, o)
					}
				case "shard-transfer":
					if o.key == o.key2 || o.key2 < 0 || o.key2 >= shardAccounts || o.amount < 1 || o.amount > shardMaxAmount {
						t.Fatalf("%s: op %+v", w.name, o)
					}
				}
			}
			if w.name == "durable-write" && (c == 0) != (kinds[opCheckpoint] == 20000/checkpointEvery) {
				t.Errorf("client %d: %d checkpoints in 20000 ops", c, kinds[opCheckpoint])
			}
		}
	}
}

func TestScatterIsABijection(t *testing.T) {
	seen := make([]bool, cachedReadKeys)
	for r := uint64(0); r < cachedReadKeys; r++ {
		k := scatter(r)
		if seen[k] {
			t.Fatalf("rank %d maps to key %d twice", r, k)
		}
		seen[k] = true
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, at the repository
// root, in step with the metrics and workloads the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var progWorkloads []struct{ Name, Why string }
	for _, w := range workloads {
		progWorkloads = append(progWorkloads, struct{ Name, Why string }{w.name, w.why})
	}
	if !slices.Equal(spec.Workloads, progWorkloads) {
		t.Errorf("workloads %v, program runs %v", spec.Workloads, progWorkloads)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, e2eMetrics) {
		t.Errorf("end_to_end %v, program reports %v", e2e, e2eMetrics)
	}
	var layers []struct{ Name, Unit string }
	for _, l := range layerMetrics {
		if l.inResult {
			layers = append(layers, struct{ Name, Unit string }{l.name, l.unit})
		}
	}
	if !slices.Equal(spec.PerLayer, layers) {
		t.Errorf("per_layer %v, program reports %v", spec.PerLayer, layers)
	}
}
