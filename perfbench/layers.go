package main

import (
	"octgb/internal/fabric"
	"octgb/internal/serve"
)

// tally collects per-call counts during a replay; each count metric is the
// mean over the calls that produced it.
type tally map[string][]float64

func (t tally) add(name string, v float64) { t[name] = append(t[name], v) }

func (t tally) into(m map[string]float64) {
	for name, vs := range t {
		m[name] = mean(vs)
	}
}

// layerFromSpans sets every per-layer time metric to the median self time
// of its span over the run.
func layerFromSpans(tr *tracer, m map[string]float64) {
	self := selfTimes(tr.spans)
	for metric, name := range spanMetrics {
		if v := self[name]; len(v) > 0 {
			m[metric] = median(v)
		}
	}
}

// layerFromHTTP derives the metrics the serving stack reports itself: the
// replies' timings blocks and the deltas of the /stats counters over the
// traced pass.
func layerFromHTTP(p *pass, before, after serve.StatsSnapshot, rb, ra fabric.RouterStats, m map[string]float64) {
	if len(p.rtt) > 0 {
		over := make([]float64, len(p.rtt))
		for i := range p.rtt {
			over[i] = p.rtt[i] - p.stages[i]
		}
		m["serve.overhead_ms"] = median(over)
	}
	if len(p.queue) > 0 {
		m["serve.queue_ms"] = median(p.queue)
	}
	hits := after.Cache.Hits - before.Cache.Hits
	lookups := hits + after.Cache.Misses - before.Cache.Misses + after.Cache.Coalesced - before.Cache.Coalesced
	if lookups > 0 {
		m["serve.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	m["serve.coalesced"] = float64(after.Cache.Coalesced - before.Cache.Coalesced)
	m["serve.rejected"] = float64(rejected(after) - rejected(before))
	if len(p.batchPoses) > 0 {
		m["serve.sweep_batch_poses"] = mean(p.batchPoses)
	}
	if len(p.create) > 0 {
		m["stream.create_ms"] = median(p.create)
	}
	if len(p.late) > 0 {
		m["client.lateness_ms"] = summarize(p.late).Tail
	}
	launched := ra.Hedge.Launched - rb.Hedge.Launched
	m["fabric.hedges"] = float64(launched)
	if launched > 0 {
		m["fabric.hedge_wins"] = float64(ra.Hedge.Wins-rb.Hedge.Wins) / float64(launched)
	}
	m["fabric.retries"] = float64(ra.Requests.Retries - rb.Requests.Retries)
	m["fabric.spills"] = float64(ra.Requests.Spills - rb.Requests.Spills)
	m["fabric.hot_spreads"] = float64(ra.Requests.HotSpreads - rb.Requests.HotSpreads)
}

func rejected(s serve.StatsSnapshot) int64 {
	a := s.Admission
	return a.RejectedQueueFull + a.RejectedDraining + a.ShedLoad
}
