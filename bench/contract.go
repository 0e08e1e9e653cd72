package main

import (
	"encoding/json"
	"os"
)

// contract is BENCHMARK.json: the names, directions and regression bounds
// every later change is judged by. The program reads it for the A/A
// verdicts, so the bounds live in one place.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []gatedMetric `json:"per_layer"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (contract, error) {
	var c contract
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(b, &c)
}
