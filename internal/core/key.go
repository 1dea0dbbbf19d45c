package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// CellKey computes the stable content hash that identifies a simulation
// cell: one (application, model, machine config, workload, processor count,
// knobs) point of the evaluation matrix. The components are JSON-encoded in
// order and digested, so the key depends only on the *values* of the
// configuration — two experiments that ask for the same cell, however they
// construct it, get the same key and therefore share one simulation (the
// virtual-time engine is deterministic, see DESIGN.md §4, so the sharing is
// semantically invisible).
//
// Every component must be JSON-encodable with all relevant state exported;
// an unencodable component panics, since silently dropping it would corrupt
// the cache.
func CellKey(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(fmt.Sprintf("core: cell key component %T is not hashable: %v", p, err))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
