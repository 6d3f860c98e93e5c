package experiment

import (
	"encoding/json"
	"io"
)

// runsDocument is the JSON envelope for persisted experiment runs.
type runsDocument struct {
	// Version numbers the format, so a reader can tell revisions apart.
	Version int    `json:"version"`
	Name    string `json:"name"`
	Seed    uint64 `json:"seed"`
	Runs    []Run  `json:"runs"`
}

const runsVersion = 1

// SaveRuns writes an experiment's runs as JSON so analyses can be
// rerun or extended without recomputing the grid.
func SaveRuns(w io.Writer, name string, seed uint64, runs []Run) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(runsDocument{Version: runsVersion, Name: name, Seed: seed, Runs: runs})
}
