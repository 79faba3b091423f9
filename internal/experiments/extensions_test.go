package experiments

import (
	"reflect"
	"testing"

	"adhocbcast/internal/stats"
)

// extTinyConfig keeps extension sweeps fast in tests.
func extTinyConfig() RunConfig {
	return RunConfig{
		Sizes:     []int{30},
		Degrees:   []int{8},
		Replicate: stats.ReplicateOptions{MinRuns: 8, MaxRuns: 12, RelTol: 0.5},
		Seed:      5,
	}
}

func TestExtensionByIDUnknown(t *testing.T) {
	if _, err := ExtensionByID("nope", RunConfig{}); err == nil {
		t.Fatal("unknown extension accepted")
	}
}

func TestAllExtensionIDsDispatch(t *testing.T) {
	rc := extTinyConfig()
	for _, id := range AllExtensionIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fig, err := ExtensionByID(id, rc)
			if err != nil {
				t.Fatal(err)
			}
			if len(fig.Panels) == 0 || len(fig.Panels[0].Series) == 0 {
				t.Fatalf("empty figure: %+v", fig)
			}
			for _, panel := range fig.Panels {
				for _, s := range panel.Series {
					if len(s.Points) == 0 {
						t.Fatalf("series %q has no points", s.Label)
					}
				}
			}
		})
	}
}

func TestMobilityShape(t *testing.T) {
	// At zero movement everything delivers 100%; at large movement the
	// aggressive pruner must deliver less than flooding.
	rc := RunConfig{
		Sizes:     []int{100},
		Degrees:   []int{6},
		Replicate: stats.ReplicateOptions{MinRuns: 15, MaxRuns: 20, RelTol: 0.3},
		Seed:      9,
	}
	fig, err := Mobility(rc)
	if err != nil {
		t.Fatal(err)
	}
	panel := fig.Panels[0]
	byLabel := map[string]Series{}
	for _, s := range panel.Series {
		byLabel[s.Label] = s
	}
	for _, s := range panel.Series {
		if s.Points[0].Mean != 100 {
			t.Fatalf("%s delivered %.2f%% at zero movement", s.Label, s.Points[0].Mean)
		}
	}
	last := len(byLabel["Flooding"].Points) - 1
	flood := byLabel["Flooding"].Points[last].Mean
	generic := byLabel["Generic-FR"].Points[last].Mean
	if generic >= flood {
		t.Fatalf("generic (%.2f%%) not worse than flooding (%.2f%%) under heavy movement", generic, flood)
	}
}

func TestReliabilityShape(t *testing.T) {
	// Jitter must restore delivery; no-jitter flooding must be worst.
	rc := RunConfig{
		Sizes:     []int{100},
		Degrees:   []int{6},
		Replicate: stats.ReplicateOptions{MinRuns: 15, MaxRuns: 20, RelTol: 0.3},
		Seed:      11,
	}
	fig, err := Reliability(rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Panels[0].Series {
		noJitter := s.Points[0].Mean
		withJitter := s.Points[len(s.Points)-1].Mean
		if withJitter < noJitter {
			t.Fatalf("%s: jitter reduced delivery (%.2f -> %.2f)", s.Label, noJitter, withJitter)
		}
		if withJitter < 99 {
			t.Fatalf("%s: delivery %.2f%% with ample jitter", s.Label, withJitter)
		}
	}
}

func TestVisitedUnionAblationDirection(t *testing.T) {
	// Removing the visited-union assumption can only make the condition
	// more conservative: at least as many forward nodes.
	rc := RunConfig{
		Sizes:     []int{60},
		Degrees:   []int{6},
		Replicate: stats.ReplicateOptions{MinRuns: 20, MaxRuns: 25, RelTol: 0.3},
		Seed:      13,
	}
	fig, err := VisitedUnionAblation(rc)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Panels[0].Series
	with, without := s[0].Points[0].Mean, s[1].Points[0].Mean
	if without < with {
		t.Fatalf("without union (%.2f) pruned more than with union (%.2f)", without, with)
	}
}

func TestBackoffAblationMonotoneTrend(t *testing.T) {
	// A larger window should not substantially increase the forward count:
	// the first and last points must not regress by more than the noise.
	rc := RunConfig{
		Sizes:     []int{100},
		Degrees:   []int{6},
		Replicate: stats.ReplicateOptions{MinRuns: 15, MaxRuns: 20, RelTol: 0.3},
		Seed:      15,
	}
	fig, err := BackoffAblation(rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Panels[0].Series {
		first := s.Points[0].Mean
		last := s.Points[len(s.Points)-1].Mean
		if last > first+1 {
			t.Fatalf("%s: forward count grew with window: %.2f -> %.2f", s.Label, first, last)
		}
	}
}

// TestExtensionsDeterministicAcrossParallelism pins the sweep driver's
// contract for every extension: measuring its points concurrently yields a
// figure deep-equal to the serial one. Every configurable sweep axis is cut
// to two values to keep the test cheap.
func TestExtensionsDeterministicAcrossParallelism(t *testing.T) {
	base := RunConfig{
		Sizes:          []int{20, 30},
		Degrees:        []int{6},
		Replicate:      Quick(),
		Seed:           11,
		CrashFractions: []float64{0, 0.2},
		LossRates:      []float64{0, 0.2},
		HelloLossRates: []float64{0, 0.2},
		RestartRates:   []float64{0, 0.2},
	}
	for _, id := range AllExtensionIDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial := base
			serial.Parallelism = 1
			parallel := base
			parallel.Parallelism = 2
			want, err := ExtensionByID(id, serial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ExtensionByID(id, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Parallelism=2 diverged from serial:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
