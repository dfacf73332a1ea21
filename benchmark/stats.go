package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of an ascending slice by
// linear interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// millis is d in milliseconds, the unit every latency is collected in.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msSince(t time.Time) float64 { return millis(time.Since(t)) }

// samples collects one latency class in milliseconds.
type samples struct {
	ms []float64
}

func (s *samples) add(ms float64) { s.ms = append(s.ms, ms) }

func (s *samples) merge(o *samples) { s.ms = append(s.ms, o.ms...) }

func (s *samples) n() int { return len(s.ms) }

// p returns the q-quantile in milliseconds, sorting on demand.
func (s *samples) p(q float64) float64 {
	sort.Float64s(s.ms)
	return quantile(s.ms, q)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// windowsPerRun is how many equal windows --seconds is cut into.
const windowsPerRun = 12

// quietShare picks the window a metric is read from: the lowest decile
// of the windows' latencies, the highest decile of their rates — of
// twelve windows, about the second best.
const quietShare = 0.1

// windowed collects one series into consecutive time windows and is
// read as a low quantile over the windows of each window's own
// statistic. What disturbs a run on a small shared VM — a neighbour's
// burst, a slow disk for a few seconds — only ever slows a window down,
// and it comes in stretches: a statistic over the whole run moves by
// however much of the run the stretches covered, which does not repeat,
// while the best windows are the undisturbed ones until nearly the
// whole run is hit. A change to the program moves every window, so it
// shows in full; a cost that falls in fewer than all windows (something
// periodic with a period over a window's width) shows only in the
// whole-run diagnostics.
type windowed struct {
	width time.Duration
	wins  []window
}

// window holds the ops that started inside it: their latencies, and the
// work they did with the client time it took.
type window struct {
	samples
	amount, busyMS float64
}

func (w *windowed) at(sinceStart time.Duration) *window {
	i := int(sinceStart / w.width)
	for len(w.wins) <= i {
		w.wins = append(w.wins, window{})
	}
	return &w.wins[i]
}

func (w *windowed) add(sinceStart time.Duration, ms float64) { w.at(sinceStart).add(ms) }

// addWork records that a closed-loop client, in one turn of its loop
// begun at sinceStart, got amount done in busyMS.
func (w *windowed) addWork(sinceStart time.Duration, amount, busyMS float64) {
	win := w.at(sinceStart)
	win.amount += amount
	win.busyMS += busyMS
}

func (w *windowed) merge(o *windowed) {
	for i := range o.wins {
		for len(w.wins) <= i {
			w.wins = append(w.wins, window{})
		}
		w.wins[i].merge(&o.wins[i].samples)
		w.wins[i].amount += o.wins[i].amount
		w.wins[i].busyMS += o.wins[i].busyMS
	}
}

// whole returns every latency of the run in one series.
func (w *windowed) whole() *samples {
	var all samples
	for i := range w.wins {
		all.merge(&w.wins[i].samples)
	}
	return &all
}

// quiet returns the lowest decile over the windows of each window's
// q-quantile latency, skipping a window less than half as full as the
// fullest (the run ended inside it).
func (w *windowed) quiet(q float64) float64 {
	most := 0
	for i := range w.wins {
		most = max(most, w.wins[i].n())
	}
	var qs []float64
	for i := range w.wins {
		if n := w.wins[i].n(); n > 0 && 2*n >= most {
			qs = append(qs, w.wins[i].p(q))
		}
	}
	sort.Float64s(qs)
	return quantile(qs, quietShare)
}

// quietRate returns the highest decile over the windows of each
// window's rate: amount per second of client time, times the clients
// working side by side. Each turn of a client's loop counts whole in
// the window it began in, so no work is cut at a window's edge, and for
// clients that never idle the rate is the amount per second of wall
// time. Windows with under half the fullest's client time are skipped.
func (w *windowed) quietRate(clients int) float64 {
	most := 0.0
	for i := range w.wins {
		most = max(most, w.wins[i].busyMS)
	}
	var rates []float64
	for i := range w.wins {
		if busy := w.wins[i].busyMS; busy > 0 && 2*busy >= most {
			rates = append(rates, float64(clients)*w.wins[i].amount/(busy/1e3))
		}
	}
	sort.Float64s(rates)
	return quantile(rates, 1-quietShare)
}
