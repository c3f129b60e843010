package engine

import (
	"cmp"
	"slices"
	"strings"
)

// Result is the outcome of one scenario run. WallNS is
// non-deterministic and InboxGrows describes the allocator rather than
// the protocol; Report.Canonical zeroes both, so canonical bytes stay
// comparable across delivery-path rewrites.
type Result struct {
	Scenario          Scenario `json:"scenario"`
	Rounds            int      `json:"rounds"`
	MessagesDelivered int64    `json:"messages_delivered"`
	MessagesDropped   int64    `json:"messages_dropped"`
	AllDecided        bool     `json:"all_decided"`
	DecidedRoundMax   int      `json:"decided_round_max"`
	Output            string   `json:"output"`
	Err               string   `json:"err,omitempty"`
	WallNS            int64    `json:"wall_ns,omitempty"`

	// Decided-column detail. DecidedNodes/DecidedOf count the nodes
	// that reached the protocol's terminal predicate — for reliable
	// broadcast that is acceptance of the source's message (the Process
	// interface's Decided is always false there by design). DecidedNA
	// marks protocols with no terminal predicate at all (the dynamic
	// ordering service), whose cells render "n/a" instead of 0/N.
	DecidedNodes int  `json:"decided_nodes"`
	DecidedOf    int  `json:"decided_of"`
	DecidedNA    bool `json:"decided_na,omitempty"`

	// Churn-aware metrics: membership extremes over the run, the
	// membership events actually applied, and — for the dynamic
	// ordering protocol — the worst finality lag (protocol round minus
	// final round) over the surviving nodes.
	Joins       int `json:"joins,omitempty"`
	Leaves      int `json:"leaves,omitempty"`
	PeakMembers int `json:"peak_members,omitempty"`
	MinMembers  int `json:"min_members,omitempty"`
	FinalityLag int `json:"finality_lag,omitempty"`

	// InboxGrows is sim.Metrics.InboxGrows: deliveries that forced a
	// pooled inbox buffer to grow. It is deterministic, but it gauges
	// allocation pressure, not protocol cost.
	InboxGrows int64 `json:"inbox_grows,omitempty"`
}

// GroupKey identifies an aggregation bucket: all seeds of one
// (protocol, adversary, n, f, churn) cell collapse into one Group.
type GroupKey struct {
	Protocol  string `json:"protocol"`
	Adversary string `json:"adversary"`
	N         int    `json:"n"`
	F         int    `json:"f"`
	Churn     string `json:"churn,omitempty"` // Churn.Label of the cell's spec
}

func (k *GroupKey) compare(o *GroupKey) int {
	switch {
	case k.Protocol != o.Protocol:
		return strings.Compare(k.Protocol, o.Protocol)
	case k.Adversary != o.Adversary:
		return strings.Compare(k.Adversary, o.Adversary)
	case k.N != o.N:
		return cmp.Compare(k.N, o.N)
	case k.F != o.F:
		return cmp.Compare(k.F, o.F)
	}
	return strings.Compare(k.Churn, o.Churn)
}

// Group is the aggregate over every seed of one grid cell: round and
// message percentiles plus decision, churn and error counts.
type Group struct {
	Key        GroupKey `json:"key"`
	Count      int      `json:"count"`
	Errors     int      `json:"errors"`
	DecidedAll int      `json:"decided_all"`          // runs where every counted node decided
	DecidedNA  bool     `json:"decided_na,omitempty"` // protocol has no terminal predicate; render n/a
	RoundsP50  int      `json:"rounds_p50"`
	RoundsP90  int      `json:"rounds_p90"`
	RoundsMax  int      `json:"rounds_max"`
	MsgsP50    int64    `json:"msgs_p50"`
	MsgsP90    int64    `json:"msgs_p90"`
	MsgsMax    int64    `json:"msgs_max"`

	// Churn aggregates: total membership events applied across the
	// bucket's runs and the finality-lag spread (dynamic protocol only;
	// zero elsewhere).
	Joins  int `json:"joins,omitempty"`
	Leaves int `json:"leaves,omitempty"`
	LagP50 int `json:"lag_p50,omitempty"`
	LagMax int `json:"lag_max,omitempty"`
}

// Aggregate buckets results by GroupKey and computes per-bucket
// statistics. The merge order is deterministic: buckets are emitted in
// sorted key order and percentiles are computed over sorted samples, so
// the output is independent of the order results were produced in — and
// therefore of the worker count.
func Aggregate(results []Result) []Group {
	// A grid cell's results arrive together, so the results are keyed
	// as runs of equal keys and the runs are sorted; no result is copied,
	// and each distinct churn spec is labelled once.
	type run struct {
		key    GroupKey
		lo, hi int
	}
	var runs []run
	labels := make(map[Churn]string)
	for i := range results {
		s := &results[i].Scenario
		k := GroupKey{Protocol: s.Protocol, Adversary: s.Adversary, N: s.N, F: s.F}
		if c := s.Churn; c != nil {
			l, ok := labels[*c]
			if !ok {
				l = c.Label()
				labels[*c] = l
			}
			k.Churn = l
		}
		if n := len(runs); n > 0 && runs[n-1].key == k {
			runs[n-1].hi = i + 1
		} else {
			runs = append(runs, run{key: k, lo: i, hi: i + 1})
		}
	}
	slices.SortFunc(runs, func(a, b run) int { return a.key.compare(&b.key) })

	groups := make([]Group, 0, len(runs))
	// Percentile scratch, reused across buckets: the samples are
	// consumed before the next bucket fills them again.
	var rounds, lags []int
	var msgs []int64
	for lo, hi := 0, 0; lo < len(runs); lo = hi {
		g := Group{Key: runs[lo].key, DecidedNA: true}
		rounds, lags, msgs = rounds[:0], lags[:0], msgs[:0]
		for hi = lo; hi < len(runs) && runs[hi].key == g.Key; hi++ {
			for i := runs[hi].lo; i < runs[hi].hi; i++ {
				r := &results[i]
				g.Count++
				if r.Err != "" {
					g.Errors++
					continue
				}
				if r.AllDecided {
					g.DecidedAll++
				}
				if !r.DecidedNA {
					g.DecidedNA = false
				}
				g.Joins += r.Joins
				g.Leaves += r.Leaves
				rounds = append(rounds, r.Rounds)
				lags = append(lags, r.FinalityLag)
				msgs = append(msgs, r.MessagesDelivered)
			}
		}
		if len(rounds) == 0 {
			g.DecidedNA = false // all-error bucket: nothing to render n/a
		}
		slices.Sort(rounds)
		slices.Sort(lags)
		slices.Sort(msgs)
		if len(rounds) > 0 {
			g.RoundsP50 = rounds[rank(50, len(rounds))]
			g.RoundsP90 = rounds[rank(90, len(rounds))]
			g.RoundsMax = rounds[len(rounds)-1]
			g.MsgsP50 = msgs[rank(50, len(msgs))]
			g.MsgsP90 = msgs[rank(90, len(msgs))]
			g.MsgsMax = msgs[len(msgs)-1]
			g.LagP50 = lags[rank(50, len(lags))]
			g.LagMax = lags[len(lags)-1]
		}
		groups = append(groups, g)
	}
	return groups
}

// rank returns the nearest-rank index of percentile p in a sorted
// sample of size n.
func rank(p, n int) int {
	i := (p*n + 99) / 100 // ceil(p*n/100)
	if i < 1 {
		i = 1
	}
	if i > n {
		i = n
	}
	return i - 1
}
