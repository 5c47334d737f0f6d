// Package se implements weighted-least-squares state estimation with
// chi-square bad data detection for the DC measurement model (paper
// Section II-B), plus numerical observability analysis. It is the component
// the UFDI attack model targets; the integration tests use it to confirm
// that synthesized attack vectors are genuinely stealthy.
package se

import (
	"errors"
	"fmt"

	"segrid/internal/dcflow"
	"segrid/internal/grid"
	"segrid/internal/matrix"
	"segrid/internal/stat"
)

// ErrUnobservable is returned when the taken measurement set cannot
// determine the system state.
var ErrUnobservable = errors.New("se: system unobservable with taken measurements")

// Estimator solves ẑ = argmin (z−Hx)ᵀW(z−Hx) for the DC model.
type Estimator struct {
	sys     *grid.System
	meas    *grid.MeasurementConfig
	refBus  int
	h       *matrix.Dense // reduced: taken rows × (b−1) columns
	ids     []int         // measurement IDs in row order
	weights []float64     // per taken row
	gain    *matrix.Dense // HᵀWH
	sigma   float64
}

// Config configures an estimator.
type Config struct {
	// RefBus is the angle reference bus (1-based).
	RefBus int
	// Sigma is the measurement noise standard deviation; weights are
	// 1/σ² uniformly. Must be positive.
	Sigma float64
	// Mapped is the topology mapping used by the topology processor
	// (1-based; nil means every line in service).
	Mapped []bool
}

// NewEstimator builds an estimator for the taken measurements of meas.
func NewEstimator(meas *grid.MeasurementConfig, cfg Config) (*Estimator, error) {
	sys := meas.System()
	if cfg.Sigma <= 0 {
		return nil, fmt.Errorf("se: sigma must be positive, got %v", cfg.Sigma)
	}
	full := dcflow.BuildH(sys, cfg.Mapped)
	h, ids, err := dcflow.ReduceH(full, sys, meas, cfg.RefBus)
	if err != nil {
		return nil, err
	}
	if len(ids) < sys.Buses-1 {
		return nil, ErrUnobservable
	}
	if h.Rank(1e-8) < sys.Buses-1 {
		return nil, ErrUnobservable
	}
	w := make([]float64, len(ids))
	for i := range w {
		w[i] = 1 / (cfg.Sigma * cfg.Sigma)
	}
	// Gain matrix HᵀWH.
	hw := h.Clone()
	if _, err := hw.ScaleRows(w); err != nil {
		return nil, err
	}
	gain, err := h.Transpose().Mul(hw)
	if err != nil {
		return nil, err
	}
	return &Estimator{
		sys:     sys,
		meas:    meas,
		refBus:  cfg.RefBus,
		h:       h,
		ids:     ids,
		weights: w,
		gain:    gain,
		sigma:   cfg.Sigma,
	}, nil
}

// NumMeasurements returns m, the number of taken measurements.
func (e *Estimator) NumMeasurements() int { return len(e.ids) }

// NumStates returns n = b − 1 estimated states.
func (e *Estimator) NumStates() int { return e.sys.Buses - 1 }

// Solution is the result of one estimation run.
type Solution struct {
	// Angles are the estimated phase angles, 1-based per bus; the
	// reference bus is 0.
	Angles []float64
	// Estimated are the estimated measurement values in row order.
	Estimated []float64
	// ResidualNorm is ‖z − Hx̂‖₂.
	ResidualNorm float64
	// J is the weighted residual sum of squares Σ wᵢ(zᵢ−ẑᵢ)², the bad
	// data detection statistic (χ² with m−n degrees of freedom).
	J float64
}

// Estimate runs WLS on a full 1-based potential-measurement vector z
// (only taken entries are read).
func (e *Estimator) Estimate(z []float64) (*Solution, error) {
	if len(z) != e.sys.NumMeasurements()+1 {
		return nil, fmt.Errorf("se: measurement vector length %d, want %d", len(z), e.sys.NumMeasurements()+1)
	}
	zt := make([]float64, len(e.ids))
	for i, id := range e.ids {
		zt[i] = z[id]
	}
	// Normal equations: (HᵀWH) x = HᵀW z.
	rhs := make([]float64, e.h.Cols())
	for i := range e.ids {
		wi := e.weights[i] * zt[i]
		for j := 0; j < e.h.Cols(); j++ {
			rhs[j] += e.h.At(i, j) * wi
		}
	}
	x, err := e.gain.SolveLU(rhs)
	if err != nil {
		return nil, fmt.Errorf("se: gain matrix solve: %w", err)
	}
	est, err := e.h.MulVec(x)
	if err != nil {
		return nil, err
	}
	diff, err := matrix.SubVec(zt, est)
	if err != nil {
		return nil, err
	}
	j := 0.0
	for i, d := range diff {
		j += e.weights[i] * d * d
	}
	angles := make([]float64, e.sys.Buses+1)
	col := 0
	for bus := 1; bus <= e.sys.Buses; bus++ {
		if bus == e.refBus {
			continue
		}
		angles[bus] = x[col]
		col++
	}
	return &Solution{
		Angles:       angles,
		Estimated:    est,
		ResidualNorm: matrix.Norm2(diff),
		J:            j,
	}, nil
}

// Detector is the chi-square bad data detector: it flags a measurement set
// when the weighted residual exceeds the χ²_{m−n} quantile at the given
// significance.
type Detector struct {
	threshold float64
	dof       int
}

// NewDetector builds a detector for an estimator at significance alpha
// (e.g. 0.05 ⇒ 95th-percentile threshold, the paper's τ).
func NewDetector(e *Estimator, alpha float64) (*Detector, error) {
	dof := e.NumMeasurements() - e.NumStates()
	if dof <= 0 {
		return nil, fmt.Errorf("se: no redundancy (m=%d, n=%d)", e.NumMeasurements(), e.NumStates())
	}
	q, err := stat.ChiSquareQuantile(1-alpha, dof)
	if err != nil {
		return nil, err
	}
	return &Detector{threshold: q, dof: dof}, nil
}

// Threshold returns τ.
func (d *Detector) Threshold() float64 { return d.threshold }

// DegreesOfFreedom returns m − n.
func (d *Detector) DegreesOfFreedom() int { return d.dof }

// BadDataDetected reports whether the solution's residual statistic exceeds
// the detection threshold.
func (d *Detector) BadDataDetected(sol *Solution) bool {
	return sol.J > d.threshold
}
