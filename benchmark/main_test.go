package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// sockets counts this process's open socket descriptors.
func sockets(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// baseline returns the goroutine and socket counts to compare with
// after a run. os/signal starts one goroutine on first use that lives
// as long as the process; it is started here so it is in the baseline.
func baseline(t *testing.T) (goroutines, socks int) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGTERM)
	signal.Stop(c)
	return runtime.NumGoroutine(), sockets(t)
}

// settles polls until get returns want or two seconds pass: closed
// connections and exiting goroutines need a moment to be gone.
func settles(get func() int, want int) int {
	deadline := time.Now().Add(2 * time.Second)
	got := get()
	for got > want && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		got = get()
	}
	return got
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuick runs every workload and the traced run end to end on tiny
// beds with every op checked, and holds the output to BENCHMARK.json:
// each declared metric exactly once, finite, nothing else; no failed
// op; and nothing left behind — goroutines, sockets, files.
func TestQuick(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	goroutines, socks := baseline(t)

	for _, trace := range []string{"0", "1"} {
		want := bf.EndToEnd
		if trace == "1" {
			want = bf.PerLayer
		}
		for _, wl := range bf.Workloads {
			if trace == "1" && wl.Name != bf.Workloads[0].Name {
				continue // the traced run is the same probe for every workload
			}
			t.Run(wl.Name+"/trace="+trace, func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				if code := run([]string{"-workload", wl.Name, "-quick", "-seconds", "1", "-seed", "3", "-trace", trace, "-workdir", dir}, &out); code != 0 {
					t.Fatalf("exit code %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					switch {
					case !metricName.MatchString(d.Name):
						t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
					case !ok:
						t.Errorf("declared metric %s not emitted", d.Name)
					case !finite(m.Value):
						t.Errorf("%s = %v", d.Name, m.Value)
					case m.Unit != d.Unit:
						t.Errorf("%s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
				}
				left, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range left {
					if !strings.HasPrefix(e.Name(), "spans-") {
						t.Errorf("%s left behind in the work dir", e.Name())
					}
				}
			})
		}
	}

	if got := settles(runtime.NumGoroutine, goroutines); got > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the runs\n%s", got, goroutines, buf[:runtime.Stack(buf, true)])
	}
	if got := settles(func() int { return sockets(t) }, socks); got > socks {
		t.Errorf("%d sockets open, %d before the runs", got, socks)
	}
}

// TestCutShort ends a run mid-flight both ways it can be ended — its
// own watchdog and SIGTERM — and checks that it still unwinds
// completely and exits non-zero by itself.
func TestCutShort(t *testing.T) {
	for name, cut := range map[string]struct {
		args []string
		kick func() error
	}{
		"watchdog": {args: []string{"-deadline", "700ms"}},
		"sigterm":  {kick: signalSelf},
	} {
		t.Run(name, func(t *testing.T) {
			goroutines, socks := baseline(t)
			dir := t.TempDir()
			done := make(chan int, 1)
			go func() {
				var out bytes.Buffer
				done <- run(append([]string{"-workload", "interactive", "-quick", "-seconds", "30", "-workdir", dir}, cut.args...), &out)
			}()
			if cut.kick != nil {
				time.Sleep(700 * time.Millisecond)
				if err := cut.kick(); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case code := <-done:
				if code != 3 {
					t.Errorf("a run cut short exited %d, want 3", code)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("run did not return")
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("%d entries left in the work dir", len(left))
			}
			if got := settles(runtime.NumGoroutine, goroutines); got > goroutines {
				t.Errorf("%d goroutines, %d before the run", got, goroutines)
			}
			if got := settles(func() int { return sockets(t) }, socks); got > socks {
				t.Errorf("%d sockets open, %d before the run", got, socks)
			}
		})
	}
}

// signalSelf delivers SIGTERM to this process; run's NotifyContext is
// the only handler while a run is in flight.
func signalSelf() error {
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		return err
	}
	return p.Signal(syscall.SIGTERM)
}

// TestRelDiff pins the A/A comparison's edge cases: the sign follows
// the second value, and a first value of 0 never yields a number that
// could pass for "inside the bound" unless the second is 0 too.
func TestRelDiff(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{
		{2, 3, 0.5},
		{2, 1, -0.5},
		{-2, -1, 0.5},
		{0, 0, 0},
	} {
		if got := relDiff(c.a, c.b); got != c.want {
			t.Errorf("relDiff(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if got := relDiff(0, 1); finite(got) {
		t.Errorf("relDiff(0, 1) = %v, want NaN", got)
	}
}

// TestWindowed pins how a windowed series is read: the best decile of
// the windows' own statistics, with a barely started last window left
// out, and a rate that is work per second of client time.
func TestWindowed(t *testing.T) {
	w := windowed{width: time.Second}
	for win, ms := range []float64{1.4, 1.0, 1.2, 1.1, 1.3} {
		for i := 0; i < 10; i++ {
			at := time.Duration(win)*time.Second + time.Duration(i)*time.Millisecond
			w.add(at, ms)
			w.addWork(at, 1, ms)
		}
	}
	w.add(5*time.Second, 0.1) // the run ended just inside a sixth window
	w.addWork(5*time.Second, 1, 0.1)
	if got, want := w.quiet(0.5), 1.04; !near(got, want) { // 1.0, 1.1 … 1.4 at 0.1×4
		t.Errorf("quiet(0.5) = %v, want %v", got, want)
	}
	// Each client does 1000/1.4 … 1000/1.0 ops per second, read at 0.9×4.
	if got, want := w.quietRate(2), 2*(1000/1.1+0.6*(1000/1.0-1000/1.1)); !near(got, want) {
		t.Errorf("quietRate(2) = %v, want %v", got, want)
	}
	if got := w.whole().n(); got != 51 {
		t.Errorf("whole() holds %d samples, want 51", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
