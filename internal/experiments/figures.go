package experiments

import (
	"fmt"

	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// Figure10 reproduces the timing-options experiment: Static vs FR vs FRB vs
// FRBD generic self-pruning with 2-hop views and ID priority.
func Figure10(rc RunConfig) (Figure, error) {
	cfg := sim.Config{Hops: 2, Metric: view.MetricID}
	return paperFigure(rc, "10", "Broadcast algorithms with different timing options", []int{2}, []variant{
		{label: "Static", make: generic(protocol.TimingStatic), cfg: cfg},
		{label: "FR", make: generic(protocol.TimingFirstReceipt), cfg: cfg},
		{label: "FRB", make: generic(protocol.TimingBackoffRandom), cfg: cfg},
		{label: "FRBD", make: generic(protocol.TimingBackoffDegree), cfg: cfg},
	})
}

// Figure11 reproduces the selection-options experiment: self-pruning (SP),
// neighbor-designating (ND), and the MaxDeg / MinPri hybrids, first-receipt,
// 2-hop views, ID priority.
func Figure11(rc RunConfig) (Figure, error) {
	cfg := sim.Config{Hops: 2, Metric: view.MetricID}
	return paperFigure(rc, "11", "Dynamic (first-receipt) algorithms with different selection options", []int{2}, []variant{
		{label: "SP", make: protocol.SelfPruningFR, cfg: cfg},
		{label: "ND", make: protocol.NeighborDesignatingFR, cfg: cfg},
		{label: "MaxDeg", make: protocol.HybridMaxDeg, cfg: cfg},
		{label: "MinPri", make: protocol.HybridMinPri, cfg: cfg},
	})
}

// Figure12 reproduces the space experiment: generic first-receipt
// self-pruning under 2-, 3-, 4-, 5-hop and global views, ID priority.
func Figure12(rc RunConfig) (Figure, error) {
	var variants []variant
	for _, k := range []int{2, 3, 4, 5, 0} {
		label := fmt.Sprintf("%d-hop", k)
		if k == 0 {
			label = "global"
		}
		variants = append(variants, variant{
			label: label,
			make:  generic(protocol.TimingFirstReceipt),
			cfg:   sim.Config{Hops: k, Metric: view.MetricID},
		})
	}
	return paperFigure(rc, "12", "Dynamic self-pruning algorithms based on different local views", nil, variants)
}

// Figure13 reproduces the priority experiment: generic first-receipt
// self-pruning under ID, Degree and NCR priorities, 2-hop views.
func Figure13(rc RunConfig) (Figure, error) {
	var variants []variant
	for _, m := range []view.Metric{view.MetricID, view.MetricDegree, view.MetricNCR} {
		variants = append(variants, variant{
			label: m.String(),
			make:  generic(protocol.TimingFirstReceipt),
			cfg:   sim.Config{Hops: 2, Metric: m},
		})
	}
	return paperFigure(rc, "13", "Dynamic self-pruning algorithms using different priority values", nil, variants)
}

// Figure14 reproduces the static special-cases comparison: MPR, enhanced
// Span, Rule k and the generic static algorithm, with 2- and 3-hop views.
// All algorithms except MPR use NCR priority (Span's original
// configuration); MPR's relaxed forwarding rule stands in for its
// designating-time priority.
func Figure14(rc RunConfig) (Figure, error) {
	cfg := sim.Config{Metric: view.MetricNCR}
	return paperFigure(rc, "14", "Static broadcast algorithms", []int{2, 3}, []variant{
		{label: "MPR", make: protocol.MPR, cfg: cfg},
		{label: "Span", make: protocol.Span, cfg: cfg},
		{label: "Rule k", make: protocol.RuleK, cfg: cfg},
		{label: "Generic", make: generic(protocol.TimingStatic), cfg: cfg},
	})
}

// Figure15 reproduces the first-receipt special-cases comparison: DP, PDP,
// LENWB and the generic FR algorithm, degree priority, 2- and 3-hop views.
func Figure15(rc RunConfig) (Figure, error) {
	cfg := sim.Config{Metric: view.MetricDegree}
	return paperFigure(rc, "15", "First-receipt broadcast algorithms", []int{2, 3}, []variant{
		{label: "DP", make: protocol.DP, cfg: cfg},
		{label: "PDP", make: protocol.PDP, cfg: cfg},
		{label: "LENWB", make: protocol.LENWB, cfg: cfg},
		{label: "Generic", make: generic(protocol.TimingFirstReceipt), cfg: cfg},
	})
}

// Figure16 reproduces the first-receipt-with-backoff comparison: SBA vs the
// generic FRB algorithm, ID priority, 2- and 3-hop views.
func Figure16(rc RunConfig) (Figure, error) {
	cfg := sim.Config{Metric: view.MetricID}
	return paperFigure(rc, "16", "First-receipt-with-backoff broadcast algorithms", []int{2, 3}, []variant{
		{label: "SBA", make: protocol.SBA, cfg: cfg},
		{label: "Generic", make: generic(protocol.TimingBackoffRandom), cfg: cfg},
	})
}

// paperFigure declares one of the paper's figures: per degree, a panel per
// view depth in hops, or a single panel when hops is nil and the variants
// carry their own view depths.
func paperFigure(rc RunConfig, id, title string, hops []int, variants []variant) (Figure, error) {
	rc = rc.withDefaults()
	s := newSweep(rc, id, title, "")
	for _, d := range rc.Degrees {
		if len(hops) == 0 {
			s.sizes("fig"+id, fmt.Sprintf("d=%d", d), d, variants)
		}
		for _, k := range hops {
			vs := append([]variant(nil), variants...)
			for i := range vs {
				vs[i].cfg.Hops = k
			}
			s.sizes("fig"+id, fmt.Sprintf("d=%d, %d-hop", d, k), d, vs)
		}
	}
	return s.run()
}

// FigureByID dispatches to the figure drivers; valid ids are "10".."16".
func FigureByID(id string, rc RunConfig) (Figure, error) {
	switch id {
	case "10":
		return Figure10(rc)
	case "11":
		return Figure11(rc)
	case "12":
		return Figure12(rc)
	case "13":
		return Figure13(rc)
	case "14":
		return Figure14(rc)
	case "15":
		return Figure15(rc)
	case "16":
		return Figure16(rc)
	default:
		return Figure{}, fmt.Errorf("experiments: unknown figure %q (valid: 10..16)", id)
	}
}

// AllFigureIDs lists the reproducible figures in paper order.
func AllFigureIDs() []string {
	return []string{"10", "11", "12", "13", "14", "15", "16"}
}
