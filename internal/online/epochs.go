package online

import (
	"math"

	"datacache/internal/engine"
	"datacache/internal/model"
	"datacache/internal/offline"
)

// EpochStat describes one epoch of an SC run: the paper proves Theorem 3
// per epoch and composes, so each row must satisfy SC <= 3*OPT where OPT is
// the off-line optimum of that epoch's own requests with the item starting
// where the previous epoch's reset left it.
type EpochStat struct {
	Index    int
	Start    float64 // epoch start time (0 for the first)
	End      float64 // time of the closing reset (or the horizon)
	Requests int
	SCCost   float64 // SC cost accrued within [Start, End]
	OptCost  float64 // off-line optimum of the epoch's sub-instance
	Ratio    float64 // SCCost / OptCost (1 when OptCost == 0)
}

// AnalyzeEpochs runs SC with the given epoch size and carves the run into
// its epochs, solving each epoch's sub-instance off-line. It returns one
// stat per epoch (including a final partial epoch when the sequence ends
// mid-epoch). Used by tests to confirm the per-epoch form of Theorem 3 and
// by reports to show where an adversarial run concentrates its losses.
func AnalyzeEpochs(seq *model.Sequence, cm model.CostModel, epochTransfers int) ([]EpochStat, error) {
	if epochTransfers < 1 {
		epochTransfers = seq.N() + 1 // single epoch
	}
	type boundary struct {
		at   float64
		keep model.ServerID
	}
	var resets []boundary
	d := &engine.SC{
		EpochTransfers: epochTransfers,
		OnReset: func(t float64, keep model.ServerID) {
			resets = append(resets, boundary{at: t, keep: keep})
		},
	}
	sched, err := Replay(d, seq, cm)
	if err != nil {
		return nil, err
	}
	cur := model.NewCursor(seq, sched, cm)

	// Carve [0, End] at the reset instants.
	var stats []EpochStat
	start := 0.0
	origin := seq.Origin
	reqIdx := 0
	closeEpoch := func(end float64, nextOrigin model.ServerID) error {
		sub := &model.Sequence{M: seq.M, Origin: origin}
		for reqIdx < seq.N() && seq.Requests[reqIdx].Time <= end {
			r := seq.Requests[reqIdx]
			sub.Requests = append(sub.Requests, model.Request{Server: r.Server, Time: r.Time - start})
			reqIdx++
		}
		st := EpochStat{
			Index:    len(stats) + 1,
			Start:    start,
			End:      end,
			Requests: sub.N(),
			SCCost:   cur.CostThrough(end) - cur.CostThrough(start),
		}
		if sub.N() > 0 {
			opt, err := offline.FastDP(sub, cm)
			if err != nil {
				return err
			}
			st.OptCost = opt.Cost()
		}
		if st.OptCost > 0 {
			st.Ratio = st.SCCost / st.OptCost
		} else {
			st.Ratio = 1
		}
		stats = append(stats, st)
		start = end
		origin = nextOrigin
		return nil
	}
	for _, b := range resets {
		if err := closeEpoch(b.at, b.keep); err != nil {
			return nil, err
		}
	}
	if reqIdx < seq.N() || len(stats) == 0 {
		if err := closeEpoch(seq.End(), origin); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// WorstEpochRatio returns the maximum per-epoch ratio, the quantity the
// per-epoch proof bounds by 3.
func WorstEpochRatio(stats []EpochStat) float64 {
	worst := 0.0
	for _, s := range stats {
		if !math.IsInf(s.Ratio, 0) && s.Ratio > worst {
			worst = s.Ratio
		}
	}
	return worst
}
