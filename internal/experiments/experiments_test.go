package experiments

import (
	"math"
	"strings"
	"testing"
)

// skipUnderRace skips a long single-threaded calibration sweep when the
// binary is race-instrumented. These tests run no goroutines of their
// own (the concurrent paths stay covered by the parallelism and
// renderer tests), and their ~10x race slowdown would push the package
// past go test's default 10-minute timeout.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("single-threaded calibration sweep; skipped under -race")
	}
}

func row(t *testing.T, rows []Table1Row, name string) Table1Row {
	t.Helper()
	for _, r := range rows {
		if r.Object == name {
			return r
		}
	}
	t.Fatalf("object %q missing from rows %+v", name, rows)
	return Table1Row{}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Apps) != 7 || o.Apps[0] != "tomcatv" || o.Apps[6] != "ijpeg" {
		t.Fatalf("default apps = %v", o.Apps)
	}
	if got := o.sampleIntervalFor("tomcatv"); got != 2000 {
		t.Fatalf("tomcatv sample interval = %d", got)
	}
	if got := o.sampleIntervalFor("ijpeg"); got != 200 {
		t.Fatalf("ijpeg sample interval = %d (sparse-miss app)", got)
	}
	p := Options{Paper: true}.withDefaults()
	if got := p.sampleIntervalFor("tomcatv"); got != 50_000 {
		t.Fatalf("paper-mode interval = %d, want 50000", got)
	}
	if p.budgetFor("tomcatv") != 10*(Options{}).budgetFor("tomcatv") {
		t.Fatal("paper mode did not scale the budget")
	}
	if (Options{Budget: 42}).budgetFor("anything") != 42 {
		t.Fatal("budget override ignored")
	}
}

func TestTable1UnknownApp(t *testing.T) {
	if _, err := Table1App("nope", Options{}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestTable1Tomcatv(t *testing.T) {
	skipUnderRace(t)
	r, err := Table1App("tomcatv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.SearchConverged {
		t.Errorf("search did not converge in %d iterations", r.SearchIterations)
	}
	// Search column: every array within 2 points of actual (the paper's
	// search column is within ~0.3 everywhere for tomcatv).
	for _, name := range []string{"RX", "RY", "AA", "DD", "X", "Y", "D"} {
		rw := row(t, r.Rows, name)
		if rw.SearchRank == 0 {
			t.Errorf("search did not find %s", name)
			continue
		}
		if d := math.Abs(rw.SearchPct - rw.ActualPct); d > 2 {
			t.Errorf("%s: search %.1f vs actual %.1f", name, rw.SearchPct, rw.ActualPct)
		}
	}
	// Sampling column: the paper's §3.1 resonance — the fixed even
	// interval skews the interleaved pair, one of RX/RY overestimated and
	// the other underestimated, while the non-interleaved arrays stay
	// accurate (paper: RX 37.1, RY 17.6, others within ~0.5).
	rx, ry := row(t, r.Rows, "RX"), row(t, r.Rows, "RY")
	if !(rx.SamplePct > rx.ActualPct+4 && ry.SamplePct < ry.ActualPct-4) &&
		!(ry.SamplePct > ry.ActualPct+4 && rx.SamplePct < rx.ActualPct-4) {
		t.Errorf("no RX/RY resonance skew: RX %.1f RY %.1f (actual 22.5 each)", rx.SamplePct, ry.SamplePct)
	}
	for _, name := range []string{"AA", "DD", "X", "Y", "D"} {
		rw := row(t, r.Rows, name)
		if d := math.Abs(rw.SamplePct - rw.ActualPct); d > 3 {
			t.Errorf("%s: sampling %.1f vs actual %.1f (non-interleaved arrays should be accurate)", name, rw.SamplePct, rw.ActualPct)
		}
	}
}

func TestTable1Ijpeg(t *testing.T) {
	r, err := Table1App("ijpeg", Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := row(t, r.Rows, "0x141020000")
	if img.ActualRank != 1 {
		t.Fatalf("image heap block not actual rank 1: %+v", img)
	}
	if img.SampleRank != 1 || img.SearchRank != 1 {
		t.Errorf("techniques missed the heap block: sample rank %d, search rank %d", img.SampleRank, img.SearchRank)
	}
	if d := math.Abs(img.SearchPct - img.ActualPct); d > 5 {
		t.Errorf("search image estimate %.1f vs actual %.1f", img.SearchPct, img.ActualPct)
	}
	out := row(t, r.Rows, "jpeg_compressed_data")
	if out.ActualRank != 2 || out.SearchRank != 2 {
		t.Errorf("jpeg_compressed_data ranks: actual %d search %d, want 2/2", out.ActualRank, out.SearchRank)
	}
}

func TestTable2MgridBothWork(t *testing.T) {
	skipUnderRace(t)
	r, err := Table2App("mgrid", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TwoWayFoundTop || !r.TenWayFoundTop {
		t.Fatalf("mgrid: 2-way found top = %v, 10-way = %v; both should succeed (paper Table 2)",
			r.TwoWayFoundTop, r.TenWayFoundTop)
	}
	// 2-way returns only the top one or two objects; 10-way all three.
	u := func(rows []Table2Row, name string) Table2Row {
		for _, rw := range rows {
			if rw.Object == name {
				return rw
			}
		}
		return Table2Row{}
	}
	if got := u(r.Rows, "V").TenWayRank; got != 3 {
		t.Errorf("10-way rank of V = %d, want 3", got)
	}
	top := u(r.Rows, "U")
	if top.TwoWayRank == 0 || math.Abs(top.TwoWayPct-top.ActualPct) > 3 {
		t.Errorf("2-way U: rank %d pct %.1f vs actual %.1f", top.TwoWayRank, top.TwoWayPct, top.ActualPct)
	}
}

func TestTable2Su2corPhaseArtifact(t *testing.T) {
	skipUnderRace(t)
	// The paper's §3.4: su2cor's changing access patterns corrupt the
	// two-way search (it mis-ranked/mis-estimated the array that later
	// caused the most misses; the found array was even estimated at
	// 0.0%). We assert the same class of artifact: the two-way estimate
	// of U is badly wrong, while the ten-way search estimates it well.
	r, err := Table2App("su2cor", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var uRow Table2Row
	for _, rw := range r.Rows {
		if rw.Object == "U" {
			uRow = rw
		}
	}
	if uRow.Object == "" {
		t.Fatal("U missing from su2cor rows")
	}
	twoErr := math.Abs(uRow.TwoWayPct - uRow.ActualPct)
	tenErr := math.Abs(uRow.TenWayPct - uRow.ActualPct)
	if uRow.TwoWayRank != 0 && twoErr < tenErr {
		t.Errorf("expected the 2-way search to suffer more from su2cor's phases: 2-way err %.1f, 10-way err %.1f", twoErr, tenErr)
	}
	if uRow.TenWayRank != 1 {
		t.Errorf("10-way did not rank U first (rank %d)", uRow.TenWayRank)
	}
	if tenErr > 8 {
		t.Errorf("10-way U estimate %.1f vs actual %.1f", uRow.TenWayPct, uRow.ActualPct)
	}
}

func TestPerturbationShape(t *testing.T) {
	skipUnderRace(t)
	rows, err := PerturbationApp("mgrid", Options{})
	if err != nil {
		t.Fatal(err)
	}
	byCfg := map[string]PerturbRow{}
	for _, r := range rows {
		byCfg[r.Config] = r
	}
	// Figure 4 shape: slowdown decreases as the sampling interval grows,
	// and sampling every 1,000 misses is expensive (paper: up to 16%).
	s1k, s10k, s100k, s1m := byCfg["sample(1000)"], byCfg["sample(10000)"], byCfg["sample(100000)"], byCfg["sample(1000000)"]
	if !(s1k.SlowdownPct > s10k.SlowdownPct && s10k.SlowdownPct > s100k.SlowdownPct && s100k.SlowdownPct > s1m.SlowdownPct) {
		t.Errorf("slowdown not monotone in interval: %.3f %.3f %.3f %.3f",
			s1k.SlowdownPct, s10k.SlowdownPct, s100k.SlowdownPct, s1m.SlowdownPct)
	}
	if s1k.SlowdownPct < 2 {
		t.Errorf("sample(1000) slowdown %.2f%%: too cheap to reproduce Figure 4", s1k.SlowdownPct)
	}
	// The search is far cheaper than frequent sampling (paper §3.3) and
	// takes orders of magnitude fewer interrupts.
	search := byCfg["search"]
	if search.SlowdownPct > s10k.SlowdownPct {
		t.Errorf("search slowdown %.3f%% exceeds sample(10000) %.3f%%", search.SlowdownPct, s10k.SlowdownPct)
	}
	if search.Interrupts*100 > s1k.Interrupts {
		t.Errorf("search interrupts (%d) not ≪ sample(1000) interrupts (%d)", search.Interrupts, s1k.Interrupts)
	}
	// Figure 3 shape: perturbation is small for a dense-miss app
	// (paper: worst non-ijpeg case 0.14%).
	for _, r := range rows {
		if r.MissIncreasePct > 1.0 {
			t.Errorf("%s: miss increase %.3f%% too large for mgrid", r.Config, r.MissIncreasePct)
		}
		if r.MissIncreasePct < -0.5 {
			t.Errorf("%s: miss increase negative beyond noise: %.3f%%", r.Config, r.MissIncreasePct)
		}
	}
	// Sampling handler cost per interrupt is close to the paper's ~9,000
	// cycles (8,800 delivery + handler body).
	if s10k.CyclesPerInterrupt < 8800 || s10k.CyclesPerInterrupt > 15_000 {
		t.Errorf("sampling cycles/interrupt = %.0f, want ~9000-15000", s10k.CyclesPerInterrupt)
	}
}

func TestFigure5Phases(t *testing.T) {
	r, err := Figure5(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, rsd := r.Series["a"], r.Series["rsd"]
	if len(a) < 20 {
		t.Fatalf("only %d buckets", len(a))
	}
	zeroA := 0
	rsdActiveWhileAZero := 0
	for i := range a {
		if a[i] == 0 {
			zeroA++
			if i < len(rsd) && rsd[i] > 0 {
				rsdActiveWhileAZero++
			}
		}
	}
	if zeroA == 0 {
		t.Fatal("array a never idle: no phases")
	}
	if rsdActiveWhileAZero == 0 {
		t.Fatal("rsd never active during a's idle phases")
	}
	// a and b share the phase structure ("A, B, C" plotted together);
	// buckets straddling a phase boundary may disagree, but the bulk must
	// match.
	b := r.Series["b"]
	agree := 0
	for i := range a {
		if (a[i] == 0) == (b[i] == 0) {
			agree++
		}
	}
	if float64(agree) < 0.9*float64(len(a)) {
		t.Fatalf("a and b phase-agree in only %d/%d buckets", agree, len(a))
	}
}

func TestFigure2Ablation(t *testing.T) {
	skipUnderRace(t)
	r, err := Figure2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Hottest != "E" {
		t.Fatalf("hottest object = %q, want E", r.Hottest)
	}
	if r.GreedyFoundHottest {
		t.Error("greedy search found E; the ablation should reproduce the Figure 2 failure")
	}
	if !r.PQFoundHottest {
		t.Error("priority-queue search did not find E")
	}
	if len(r.PQ) == 0 || r.PQ[0].Object.Name != "E" {
		t.Errorf("PQ search top = %v, want E", r.PQ)
	}
}

func TestResonanceStudy(t *testing.T) {
	r, err := Resonance(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.PrimeInterval == r.FixedInterval {
		t.Fatalf("prime interval %d not distinct from fixed %d", r.PrimeInterval, r.FixedInterval)
	}
	if r.FixedMaxErr < 2*r.PrimeMaxErr {
		t.Errorf("fixed-interval max error %.1f not clearly worse than prime %.1f", r.FixedMaxErr, r.PrimeMaxErr)
	}
	if r.PrimeMaxErr > 4 {
		t.Errorf("prime-interval sampling still inaccurate: max err %.1f", r.PrimeMaxErr)
	}
	if r.RandomMaxErr > 4 {
		t.Errorf("randomized sampling still inaccurate: max err %.1f", r.RandomMaxErr)
	}
	// The skew is concentrated on the interleaved pair.
	skew := math.Abs(r.FixedRXRYSplit[0] - r.FixedRXRYSplit[1])
	if skew < 8 {
		t.Errorf("fixed-interval RX/RY skew only %.1f points", skew)
	}
}

func TestAblationPhaseHandling(t *testing.T) {
	skipUnderRace(t)
	with, without, err := AblationPhase(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With retention, the two-way search on su2cor identifies U (the
	// dominant array) as the top object; without it, the phase change
	// corrupts the result — the paper's §3.4 failure mode.
	if !with.TopCorrect {
		t.Errorf("phase-handling search did not rank U first (found: %s)", strings.Join(with.Found, " "))
	}
	if without.MeanAbsErr <= with.MeanAbsErr {
		t.Errorf("disabling the heuristic did not hurt: with err %.2f, without err %.2f",
			with.MeanAbsErr, without.MeanAbsErr)
	}
	t.Logf("with: top=%v err=%.2f; without: top=%v err=%.2f",
		with.TopCorrect, with.MeanAbsErr, without.TopCorrect, without.MeanAbsErr)
}

func TestAblationTimeshare(t *testing.T) {
	skipUnderRace(t)
	ded, shr, err := AblationTimeshare("mgrid", 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ded.TopCorrect {
		t.Error("dedicated-counter search missed the top object on mgrid")
	}
	// The paper predicts timesharing "may lead to increased inaccuracy":
	// the shared variant must not be more accurate by a wide margin, and
	// typically is worse.
	if shr.MeanAbsErr+1 < ded.MeanAbsErr {
		t.Errorf("timeshared counters unexpectedly more accurate: %.2f vs %.2f", shr.MeanAbsErr, ded.MeanAbsErr)
	}
	t.Logf("dedicated: err %.2f rho %.2f; timeshared: err %.2f rho %.2f",
		ded.MeanAbsErr, ded.SpearmanRho, shr.MeanAbsErr, shr.SpearmanRho)
}

func TestRenderersProduceOutput(t *testing.T) {
	r, err := Table1App("mgrid", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderTable1([]AppResult{r}).Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mgrid", "U", "R", "V", "Actual"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := RenderTable1([]AppResult{r}).RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mgrid,U") && !strings.Contains(sb.String(), "mgrid") {
		t.Errorf("CSV output malformed:\n%s", sb.String())
	}
}

func TestAblationRetirement(t *testing.T) {
	skipUnderRace(t)
	plain, retire, err := AblationRetirement(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain found %d, retirement found %d", len(plain.Found), len(retire.Found))
	if len(retire.Found) <= len(plain.Found) {
		t.Errorf("retirement found %d objects, plain %d; expected more", len(retire.Found), len(plain.Found))
	}
	if len(retire.Found) < 12 {
		t.Errorf("retirement found only %d of su2cor's 21 arrays", len(retire.Found))
	}
}

func TestSearchIntervalSensitivity(t *testing.T) {
	skipUnderRace(t)
	rows, err := SearchIntervalSensitivity("mgrid", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 6 fixed + 1 adaptive", len(rows))
	}
	for _, r := range rows {
		if r.MeanAbsErr > 5 {
			t.Errorf("%s: mean err %.2f implausibly high for mgrid", r.Setting, r.MeanAbsErr)
		}
	}
	// Longer intervals mean fewer iterations and lower cost.
	if rows[0].Iterations < rows[5].Iterations {
		t.Errorf("iteration counts not decreasing with interval: %d vs %d", rows[0].Iterations, rows[5].Iterations)
	}
	adaptive := rows[len(rows)-1]
	if adaptive.Setting == "" || adaptive.MeanAbsErr > 5 {
		t.Errorf("adaptive row broken: %+v", adaptive)
	}
}

func TestSampleIntervalSensitivity(t *testing.T) {
	skipUnderRace(t)
	rows, err := SampleIntervalSensitivity("mgrid", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The cost/accuracy trade-off: slowdown strictly decreases with the
	// interval, accuracy (mean err) does not improve as samples shrink.
	for i := 1; i < 4; i++ {
		if rows[i].SlowdownPct >= rows[i-1].SlowdownPct {
			t.Errorf("slowdown not decreasing: %s %.3f >= %s %.3f",
				rows[i].Setting, rows[i].SlowdownPct, rows[i-1].Setting, rows[i-1].SlowdownPct)
		}
	}
	if rows[0].MeanAbsErr > rows[3].MeanAbsErr {
		t.Errorf("1-in-100 (%.2f) less accurate than 1-in-100000 (%.2f)",
			rows[0].MeanAbsErr, rows[3].MeanAbsErr)
	}
	// The auto row must land near its 1% overhead target.
	auto := rows[4]
	if auto.SlowdownPct < 0.5 || auto.SlowdownPct > 2.0 {
		t.Errorf("auto-tuned overhead %.3f%%, target 1%%", auto.SlowdownPct)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	apps := []string{"mgrid", "figure2"}
	serial, err := Table1(Options{Apps: apps, Budget: 40_000_000, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Table1(Options{Apps: apps, Budget: 40_000_000, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].App != parallel[i].App {
			t.Fatalf("order differs at %d: %s vs %s", i, serial[i].App, parallel[i].App)
		}
		if len(serial[i].Rows) != len(parallel[i].Rows) {
			t.Fatalf("%s: row counts differ", serial[i].App)
		}
		for j := range serial[i].Rows {
			if serial[i].Rows[j] != parallel[i].Rows[j] {
				t.Fatalf("%s row %d differs:\nserial:   %+v\nparallel: %+v",
					serial[i].App, j, serial[i].Rows[j], parallel[i].Rows[j])
			}
		}
	}
}

func TestParallelPropagatesErrors(t *testing.T) {
	if _, err := Table1(Options{Apps: []string{"mgrid", "bogus"}, Budget: 1_000_000}); err == nil {
		t.Fatal("error from a parallel worker not propagated")
	}
}

func TestParallelismResolution(t *testing.T) {
	if got := (Options{Parallel: 3}).parallelism(); got != 3 {
		t.Fatalf("Parallel = %d", got)
	}
	if got := (Options{}).parallelism(); got < 1 {
		t.Fatalf("default parallelism %d", got)
	}
}

func TestFigure1SearchProgress(t *testing.T) {
	r, err := Figure1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.History) < 3 {
		t.Fatalf("only %d iterations recorded", len(r.History))
	}
	// Iteration 1 covers the whole extent with 2 regions.
	first := r.History[0]
	if len(first.Regions) != 2 {
		t.Fatalf("iteration 1 measured %d regions", len(first.Regions))
	}
	if first.Regions[0].Lo != r.Lo || first.Regions[len(first.Regions)-1].Hi != r.Hi {
		t.Error("iteration 1 does not span the extent")
	}
	// Regions never escape the extent and shares stay in [0,100].
	for _, rec := range r.History {
		if rec.TotalMisses == 0 {
			t.Errorf("iteration %d recorded zero total misses", rec.Iteration)
		}
		for _, reg := range rec.Regions {
			if reg.Lo < r.Lo || reg.Hi > r.Hi || reg.Lo >= reg.Hi {
				t.Errorf("iteration %d: bad region [%#x,%#x)", rec.Iteration, uint64(reg.Lo), uint64(reg.Hi))
			}
			if reg.Pct < 0 || reg.Pct > 100 {
				t.Errorf("iteration %d: share %.1f out of range", rec.Iteration, reg.Pct)
			}
		}
	}
	// The trace must show the backtrack: some iteration after the first
	// measures a region in the bottom half (where E lives) after the
	// search descended into the top half.
	sawTopDescent, sawBacktrack := false, false
	mid := r.Lo + (r.Hi-r.Lo)/2
	for _, rec := range r.History[1:] {
		allTop := true
		for _, reg := range rec.Regions {
			if reg.Lo >= mid {
				allTop = false
			}
		}
		if allTop {
			sawTopDescent = true
		} else if sawTopDescent {
			sawBacktrack = true
		}
	}
	if !sawBacktrack {
		t.Error("history never shows the priority queue backing up to the bottom half")
	}
	// And E is the final winner.
	if len(r.Found) == 0 || r.Found[0].Object.Name != "E" {
		t.Errorf("found = %v, want E first", r.Found)
	}
}

func TestRenderFigure1(t *testing.T) {
	r, err := Figure1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderFigure1(r).Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Iteration", "result", "E"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered Figure 1 missing %q", want)
		}
	}
}
