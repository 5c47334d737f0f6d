package grid

import "fmt"

// MeasurementConfig records, per potential measurement, whether it is taken
// (recorded and reported to the estimator), secured (data-integrity
// protected) and accessible to the attacker. Index 0 is unused so that
// measurement IDs match the paper's 1-based numbering.
type MeasurementConfig struct {
	system     *System
	Taken      []bool
	Secured    []bool
	Accessible []bool
}

// NewMeasurementConfig returns a configuration for sys with every potential
// measurement taken, accessible and unsecured — the paper's default before a
// scenario restricts it.
func NewMeasurementConfig(sys *System) *MeasurementConfig {
	m := sys.NumMeasurements()
	c := &MeasurementConfig{
		system:     sys,
		Taken:      make([]bool, m+1),
		Secured:    make([]bool, m+1),
		Accessible: make([]bool, m+1),
	}
	for i := 1; i <= m; i++ {
		c.Taken[i] = true
		c.Accessible[i] = true
	}
	return c
}

// System returns the configured network.
func (c *MeasurementConfig) System() *System { return c.system }

// Clone returns a deep copy.
func (c *MeasurementConfig) Clone() *MeasurementConfig {
	out := &MeasurementConfig{
		system:     c.system,
		Taken:      append([]bool(nil), c.Taken...),
		Secured:    append([]bool(nil), c.Secured...),
		Accessible: append([]bool(nil), c.Accessible...),
	}
	return out
}

func (c *MeasurementConfig) check(ids []int) error {
	m := c.system.NumMeasurements()
	for _, id := range ids {
		if id < 1 || id > m {
			return fmt.Errorf("grid: measurement ID %d out of range 1..%d", id, m)
		}
	}
	return nil
}

// Untake marks the given measurements as not taken.
func (c *MeasurementConfig) Untake(ids ...int) error {
	if err := c.check(ids); err != nil {
		return err
	}
	for _, id := range ids {
		c.Taken[id] = false
	}
	return nil
}

// Secure marks the given measurements as data-integrity protected.
func (c *MeasurementConfig) Secure(ids ...int) error {
	if err := c.check(ids); err != nil {
		return err
	}
	for _, id := range ids {
		c.Secured[id] = true
	}
	return nil
}

// Restrict marks the given measurements as inaccessible to the attacker.
func (c *MeasurementConfig) Restrict(ids ...int) error {
	if err := c.check(ids); err != nil {
		return err
	}
	for _, id := range ids {
		c.Accessible[id] = false
	}
	return nil
}

// SecureBus secures every taken measurement homed at bus j — the paper's
// substation-level protection (e.g. by deploying a secured PMU).
func (c *MeasurementConfig) SecureBus(j int) error {
	if j < 1 || j > c.system.Buses {
		return fmt.Errorf("grid: bus %d out of range 1..%d", j, c.system.Buses)
	}
	for _, id := range c.system.MeasAtBus(j) {
		c.Secured[id] = true
	}
	return nil
}

// NumTaken counts taken measurements.
func (c *MeasurementConfig) NumTaken() int {
	n := 0
	for i := 1; i < len(c.Taken); i++ {
		if c.Taken[i] {
			n++
		}
	}
	return n
}

// TakenIDs returns the IDs of taken measurements in ascending order.
func (c *MeasurementConfig) TakenIDs() []int {
	out := make([]int, 0, c.NumTaken())
	for i := 1; i < len(c.Taken); i++ {
		if c.Taken[i] {
			out = append(out, i)
		}
	}
	return out
}

// KeepFraction untakes measurements until only about frac (0..1] of the
// potential set remains taken, removing evenly across the ID space but
// never dropping below a spanning set chosen greedily: forward line flows
// are kept preferentially so the system stays observable. Used by the
// "% of taken measurements" sweeps in the evaluation.
func (c *MeasurementConfig) KeepFraction(frac float64) error {
	if frac <= 0 || frac > 1 {
		return fmt.Errorf("grid: fraction %v out of (0,1]", frac)
	}
	m := c.system.NumMeasurements()
	target := int(frac * float64(m))
	if target < c.system.NumLines() {
		target = c.system.NumLines() // keep at least the forward flows
	}
	// Keep all forward flows (they span the network when it is connected),
	// then keep every k-th of the rest.
	for i := 1; i <= m; i++ {
		c.Taken[i] = i <= c.system.NumLines()
	}
	kept := c.system.NumLines()
	rest := m - kept
	need := target - kept
	if need <= 0 {
		return nil
	}
	// Spread the remaining kept measurements uniformly over backward flows
	// and injections.
	step := float64(rest) / float64(need)
	for k := 0; k < need; k++ {
		id := c.system.NumLines() + 1 + int(float64(k)*step)
		if id > m {
			id = m
		}
		c.Taken[id] = true
	}
	return nil
}
