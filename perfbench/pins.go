package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// pins.json holds each sweep cell's headline at the default seed —
// b_eff, b_eff_io or the workload's bandwidth in bytes/s — keyed
// "<size>/<workload>/<cell>". JSON numbers round-trip float64 exactly,
// so the comparison is bit-exact.
//
//go:embed pins.json
var embeddedPins []byte

// loadPins decodes the embedded pins.
func loadPins() (map[string]float64, error) {
	var pins map[string]float64
	if err := json.Unmarshal(embeddedPins, &pins); err != nil {
		return nil, fmt.Errorf("pins: %w", err)
	}
	return pins, nil
}
