package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"segrid/internal/core"
	"segrid/internal/pool"
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

// newScreenCache builds the cache bounded to capacity entries; 0 selects
// the default of 1024, negative disables caching (a nil registry misses
// every lookup and drops every store).
func newScreenCache(capacity int) *pool.Registry[string, *core.Result] {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = 1024
	}
	return pool.NewRegistry[string, *core.Result](capacity)
}

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
