package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"segrid/internal/scenariofile"
)

// The screen-verdict cache memoizes LP-screening outcomes across requests,
// keyed by the full screened instance: topology and goal (the canonical
// attack spec) plus the overlay's protections and tightened bounds.
// Screening is deterministic — same instance, same pivot budget, same
// three-valued verdict — so a cached verdict is exactly the verdict a fresh
// screen would certify, and an inconclusive screen is cached too (as a nil
// result) so repeat instances skip straight to the SMT tier instead of
// re-pivoting to the same cap.
//
// Only clean outcomes are cached: a screen that errored or ran under an
// already-expired context tells us nothing about the instance.

// screenCacheEntries bounds the screen-verdict cache; past it the least
// recently used verdict is evicted.
const screenCacheEntries = 1024

// screenCacheKey canonicalizes one screened instance. The spec is
// re-marshaled exactly like poolKey does; the overlay rides along so that
// what-if variants over one spec cache independently.
func screenCacheKey(spec *scenariofile.AttackSpec, ov *overlay) string {
	// The marshal cannot fail: planning already marshaled spec through
	// poolKey, and the overlay is plain ints.
	canon, _ := json.Marshal(struct {
		Spec *scenariofile.AttackSpec `json:"spec"`
		SB   []int                    `json:"sb,omitempty"`
		SM   []int                    `json:"sm,omitempty"`
		MA   int                      `json:"ma,omitempty"`
		MB   int                      `json:"mb,omitempty"`
	}{spec, ov.securedBuses, ov.securedMeasurements, ov.maxAltered, ov.maxBuses})
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}
