// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index):
//
//	experiments -table1     benchmark inventory (Table 1)
//	experiments -table2     compile/align phase times (Table 2)
//	experiments -table3     machine penalty model (Table 3)
//	experiments -table4     original penalties, HK bounds, cycles (Table 4)
//	experiments -fig2       same-input training/testing (Figure 2)
//	experiments -fig3       cross-validation (Figure 3)
//	experiments -appendix   per-procedure solver/bound statistics
//	experiments -exttsp     aligner family judged by the I-cache simulator
//	experiments -all        everything above
//
// Use -benchmarks com,xli,... to restrict the suite and -seed to change
// the deterministic random stream.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"branchalign/internal/core"
	"branchalign/internal/machine"
	"branchalign/internal/obs"
	"branchalign/internal/pipe"
	"branchalign/internal/stats"
)

// runOpts carries the parsed command line into run, which owns all
// resources (profiles, telemetry files) so that every exit path flushes
// them — os.Exit in main would skip deferred cleanup.
type runOpts struct {
	table1, table2, table3, table4 bool
	fig2, fig3, appendix, ext, all bool
	static, exttsp                 bool
	seed                           int64
	benchSel, modelSel             string
	synth                          int
	cpuProf, memProf, events       string
}

func main() {
	var o runOpts
	flag.BoolVar(&o.table1, "table1", false, "benchmark inventory (Table 1)")
	flag.BoolVar(&o.table2, "table2", false, "phase times (Table 2)")
	flag.BoolVar(&o.table3, "table3", false, "penalty model (Table 3)")
	flag.BoolVar(&o.table4, "table4", false, "original penalties and bounds (Table 4)")
	flag.BoolVar(&o.fig2, "fig2", false, "same-input experiment (Figure 2)")
	flag.BoolVar(&o.fig3, "fig3", false, "cross-validation (Figure 3)")
	flag.BoolVar(&o.appendix, "appendix", false, "per-procedure DTSP statistics (Appendix)")
	flag.BoolVar(&o.ext, "ext", false, "extensions: cache-aware weights, procedure ordering, dynamic prediction")
	flag.BoolVar(&o.static, "static", false, "static profile estimation: estimated vs measured vs compiler order")
	flag.BoolVar(&o.exttsp, "exttsp", false, "aligner family judged by the I-cache simulator: control penalty vs ExtTSP score vs simulated cycles")
	flag.BoolVar(&o.all, "all", false, "run everything")
	flag.Int64Var(&o.seed, "seed", 1, "deterministic seed")
	flag.StringVar(&o.benchSel, "benchmarks", "", "comma-separated benchmark names/abbrs (default: all)")
	flag.StringVar(&o.modelSel, "model", "alpha21164", "machine model: alpha21164, shallow, deep")
	flag.IntVar(&o.synth, "synth", 0, "add N synthetic instances to -appendix")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&o.memProf, "memprofile", "", "write a pprof heap profile to this file on exit")
	flag.StringVar(&o.events, "events", "", "export suite telemetry (stage spans, solver convergence) as NDJSON")
	flag.Parse()
	if !(o.table1 || o.table2 || o.table3 || o.table4 || o.fig2 || o.fig3 || o.appendix || o.ext || o.static || o.exttsp || o.all) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the selected experiments. Profile and telemetry teardown
// happens in defers so that error returns still produce valid files
// (the old structure lost both profiles whenever an experiment failed,
// because fatal's os.Exit skipped the deferred writers).
func run(o runOpts) (err error) {
	if o.cpuProf != "" {
		f, ferr := os.Create(o.cpuProf)
		if ferr != nil {
			return ferr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return perr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	if o.memProf != "" {
		defer func() {
			f, ferr := os.Create(o.memProf)
			if ferr != nil {
				if err == nil {
					err = ferr
				}
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	s := core.NewSuite(o.seed)
	if o.events != "" {
		f, ferr := os.Create(o.events)
		if ferr != nil {
			return ferr
		}
		sink := obs.NewNDJSONSink(f)
		tr := obs.New(sink)
		root := tr.Start("experiments", obs.Int("seed", o.seed), obs.String("model", o.modelSel))
		s.Obs = root
		defer func() {
			root.End()
			if cerr := tr.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote %d telemetry events to %s\n", sink.Count(), o.events)
		}()
	}
	if o.benchSel != "" {
		if _, werr := s.WithBenchmarks(strings.Split(o.benchSel, ",")...); werr != nil {
			return werr
		}
	}
	if s.Model, err = machine.ByName(o.modelSel); err != nil {
		return err
	}

	if o.all || o.table3 {
		printTable3(s)
	}
	if o.all || o.table1 {
		if err := printTable1(s); err != nil {
			return err
		}
	}
	if o.all || o.table2 {
		if err := printTable2(s); err != nil {
			return err
		}
	}
	if o.all || o.table4 {
		if err := printTable4(s); err != nil {
			return err
		}
	}
	if o.all || o.fig2 {
		if err := printFig2(s); err != nil {
			return err
		}
	}
	if o.all || o.fig3 {
		if err := printFig3(s); err != nil {
			return err
		}
	}
	if o.all || o.appendix {
		if err := printAppendix(s, o.synth); err != nil {
			return err
		}
	}
	if o.all || o.ext {
		if err := printExtensions(s); err != nil {
			return err
		}
	}
	if o.all || o.static {
		if err := printStatic(s); err != nil {
			return err
		}
	}
	if o.all || o.exttsp {
		if err := printExtTSP(s); err != nil {
			return err
		}
	}
	return nil
}

// printExtTSP reports the aligner-family judgment: every registered
// aligner scored on the objective it optimizes (control penalty for the
// DTSP line, ExtTSP locality score for the chain merger) and arbitrated
// by the pipeline + I-cache simulator's execution time.
func printExtTSP(s *core.Suite) error {
	rows, err := s.ExtTSPMatrix()
	if err != nil {
		return err
	}
	fmt.Println("## ExtTSP: aligner family under the I-cache simulator")
	fmt.Println("   (CP = control penalty, lower is better; score = ExtTSP objective,")
	fmt.Println("    higher is better; cycles = simulated execution; norm = vs original)")
	fmt.Println()
	t := stats.NewTable("bench.data", "aligner", "CP", "CP norm", "score", "cycles", "cycles norm", "misses")
	for _, r := range rows {
		t.Rowf("%s.%s|%s|%s|%.3f|%.1f|%s|%.3f|%d", r.Bench, r.DataSet, r.Aligner,
			stats.FormatCount(int64(r.CP)), r.CPNorm, r.Score,
			stats.FormatCount(int64(r.Cycles)), r.CyclesNorm, r.Misses)
	}
	fmt.Println(t)

	sums := core.SummarizeExtTSP(rows)
	t = stats.NewTable("aligner", "mean CP norm", "mean cycles norm", "cells faster than tsp")
	for _, sum := range sums {
		t.Rowf("%s|%.3f|%.3f|%d/%d", sum.Aligner, sum.MeanCPNorm, sum.MeanCyclesNorm,
			sum.CyclesWins, sum.Cells)
	}
	fmt.Println(t)
	var tspSum, extSum core.ExtTSPSummary
	for _, sum := range sums {
		switch sum.Aligner {
		case "tsp":
			tspSum = sum
		case "exttsp":
			extSum = sum
		}
	}
	verdict := "does NOT beat"
	if extSum.MeanCyclesNorm < tspSum.MeanCyclesNorm {
		verdict = "beats"
	}
	fmt.Printf("verdict: exttsp %s tsp on simulated cycles (%.3f vs %.3f normalized); control penalty %.3f vs %.3f\n\n",
		verdict, extSum.MeanCyclesNorm, tspSum.MeanCyclesNorm, extSum.MeanCPNorm, tspSum.MeanCPNorm)
	return nil
}

// printStatic reports the profile-free alignment experiment: TSP on the
// statically estimated profile vs TSP on the measured profile vs the
// compiler order, all charged under the measured profile, plus
// simulated execution times.
func printStatic(s *core.Suite) error {
	rows, err := s.ExtStaticProfile()
	if err != nil {
		return err
	}
	fmt.Println("## Static profile estimation: profile-free branch alignment")
	fmt.Println("   (control penalties charged under the MEASURED profile; recovered =")
	fmt.Println("    share of the measured-profile TSP improvement the estimate retains)")
	fmt.Println()
	t := stats.NewTable("bench.data", "orig CP", "measured CP", "static CP", "recovered",
		"orig cycles", "measured cycles", "static cycles")
	for _, r := range rows {
		t.Rowf("%s.%s|%s|%s|%s|%.3f|%s|%s|%s", r.Bench, r.DataSet,
			stats.FormatCount(int64(r.OrigCP)), stats.FormatCount(int64(r.MeasuredCP)),
			stats.FormatCount(int64(r.StaticCP)), r.Recovered,
			stats.FormatCount(int64(r.OrigCycles)), stats.FormatCount(int64(r.MeasuredCycles)),
			stats.FormatCount(int64(r.StaticCycles)))
	}
	fmt.Println(t)
	agg := core.StaticRecoveredAggregate(rows)
	fmt.Printf("aggregate: static-profile TSP removes %.1f%% of the control penalty measured-profile TSP removes\n\n", 100*agg)
	return nil
}

func printExtensions(s *core.Suite) error {
	fmt.Println("## Extensions (paper's future-work directions)")
	fmt.Println()

	fmt.Println("### Cache-aware edge weights (+2 cycles per taken transfer)")
	ca, err := s.ExtCacheAware(2)
	if err != nil {
		return err
	}
	t := stats.NewTable("bench.data", "plain CP", "aware CP", "plain cycles", "aware cycles", "plain misses", "aware misses")
	for _, r := range ca {
		t.Rowf("%s.%s|%d|%d|%d|%d|%d|%d", r.Bench, r.DataSet,
			r.PlainCP, r.AwareCP, r.PlainCycles, r.AwareCycles, r.PlainMisses, r.AwareMisses)
	}
	fmt.Println(t)

	fmt.Println("### Interprocedural procedure ordering (Pettis-Hansen, on TSP block layout)")
	po, err := s.ExtProcOrder()
	if err != nil {
		return err
	}
	t = stats.NewTable("bench.data", "module-order cycles", "ordered cycles", "module-order misses", "ordered misses")
	for _, r := range po {
		t.Rowf("%s.%s|%d|%d|%d|%d", r.Bench, r.DataSet,
			r.PlainCycles, r.OrderCycles, r.PlainMisses, r.OrderMisses)
	}
	fmt.Println(t)

	fmt.Println("### CFG cleanup ablation (align raw lowered CFGs vs optimizer-cleaned CFGs)")
	ob, err := s.ExtOptimize()
	if err != nil {
		return err
	}
	t = stats.NewTable("bench.data", "raw blocks", "opt blocks", "raw orig CP", "opt orig CP", "raw tsp CP(norm)", "opt tsp CP(norm)")
	for _, r := range ob {
		t.Rowf("%s.%s|%d|%d|%d|%d|%.3f|%.3f", r.Bench, r.DataSet,
			r.RawBlocks, r.OptBlocks, r.RawOrigCP, r.OptOrigCP, r.RawTSPCP, r.OptTSPCP)
	}
	fmt.Println(t)

	fmt.Println("### Union-profile training (train on both data sets merged)")
	un, err := s.ExtUnionTraining()
	if err != nil {
		return err
	}
	t = stats.NewTable("bench.test", "tsp self", "tsp cross", "tsp union")
	for _, r := range un {
		t.Rowf("%s.%s|%.3f|%.3f|%.3f", r.Bench, r.TestSet, r.SelfCP, r.CrossCP, r.UnionCP)
	}
	fmt.Println(t)

	fmt.Println("### Dynamic (2-bit + BTB) vs static prediction")
	pr, err := s.ExtPredictor(pipe.PredictorConfig{})
	if err != nil {
		return err
	}
	t = stats.NewTable("bench.data", "static orig", "static tsp", "dyn orig", "dyn tsp", "tsp mispred static", "tsp mispred dyn")
	for _, r := range pr {
		t.Rowf("%s.%s|%d|%d|%d|%d|%d|%d", r.Bench, r.DataSet,
			r.StaticOrigCycles, r.StaticTSPCycles, r.DynOrigCycles, r.DynTSPCycles,
			r.StaticTSPMispred, r.DynTSPMispred)
	}
	fmt.Println(t)
	return nil
}

func printTable3(s *core.Suite) {
	fmt.Printf("## Table 3: control penalties (%s model)\n\n", s.Model.Name)
	t := stats.NewTable("block-ending control event", "penalty (cycles)", "formulaic term")
	for _, row := range s.Model.Table() {
		t.Rowf("%s|%d|%s", row.Event, row.Penalty, row.Term)
	}
	fmt.Println(t)
}

func printTable1(s *core.Suite) error {
	rows, err := s.Table1()
	if err != nil {
		return err
	}
	fmt.Println("## Table 1: benchmarks and data sets")
	fmt.Println()
	t := stats.NewTable("bench", "data", "branch sites", "sites touched", "executed branches", "IR instrs")
	for _, r := range rows {
		t.Rowf("%s|%s|%d|%d|%s|%s", r.Bench, r.DataSet, r.SitesStatic, r.SitesTouched,
			stats.FormatCount(r.ExecutedBranch), stats.FormatCount(r.InstructionsRun))
	}
	fmt.Println(t)
	return nil
}

func printTable2(s *core.Suite) error {
	rows, err := s.Table2()
	if err != nil {
		return err
	}
	fmt.Println("## Table 2: compilation and alignment phase times (ms)")
	fmt.Println()
	t := stats.NewTable("bench", "data", "IR gen", "profile run", "greedy", "TSP matrix", "TSP solve", "TSP program")
	for _, r := range rows {
		t.Rowf("%s|%s|%.1f|%.1f|%.1f|%.1f|%.1f|%.1f", r.Bench, r.DataSet,
			r.CompileMS, r.ProfileMS, r.GreedyMS, r.MatrixMS, r.SolveMS, r.FinalizeMS)
	}
	fmt.Println(t)
	return nil
}

func printTable4(s *core.Suite) error {
	rows, err := s.Table4()
	if err != nil {
		return err
	}
	fmt.Println("## Table 4: original control penalties, lower bounds, original cycles")
	fmt.Println()
	t := stats.NewTable("bench", "data", "original CP (cycles)", "HK lower bound", "original run (cycles)")
	for _, r := range rows {
		t.Rowf("%s|%s|%s|%s|%s", r.Bench, r.DataSet,
			stats.FormatCount(r.OriginalCP), stats.FormatCount(r.LowerBoundCP), stats.FormatCount(r.OriginalCycles))
	}
	fmt.Println(t)
	return nil
}

func printFig2(s *core.Suite) error {
	rows, err := s.Fig2()
	if err != nil {
		return err
	}
	fmt.Println("## Figure 2: training and testing on the same data set")
	fmt.Println("   (normalized to the original layout; lower is better)")
	fmt.Println()
	t := stats.NewTable("bench.data", "greedy CP", "tsp CP", "lower bound", "greedy time", "tsp time")
	var gcp, tcp, bcp, gt, tt []float64
	for _, r := range rows {
		t.Rowf("%s.%s|%.3f|%.3f|%.3f|%.4f|%.4f", r.Bench, r.DataSet,
			r.GreedyCP, r.TSPCP, r.BoundCP, r.GreedyTime, r.TSPTime)
		gcp = append(gcp, r.GreedyCP)
		tcp = append(tcp, r.TSPCP)
		bcp = append(bcp, r.BoundCP)
		gt = append(gt, r.GreedyTime)
		tt = append(tt, r.TSPTime)
	}
	t.Rowf("MEAN|%.3f|%.3f|%.3f|%.4f|%.4f",
		stats.Mean(gcp), stats.Mean(tcp), stats.Mean(bcp), stats.Mean(gt), stats.Mean(tt))
	fmt.Println(t)
	fmt.Printf("greedy removes %.1f%% of control penalty; TSP removes %.1f%%; bound allows %.1f%%\n",
		stats.PercentRemoved(stats.Mean(gcp)), stats.PercentRemoved(stats.Mean(tcp)), stats.PercentRemoved(stats.Mean(bcp)))
	fmt.Printf("run-time improvement: greedy %.2f%%, TSP %.2f%%\n\n",
		stats.PercentRemoved(stats.Mean(gt)), stats.PercentRemoved(stats.Mean(tt)))
	return nil
}

func printFig3(s *core.Suite) error {
	rows, err := s.Fig3()
	if err != nil {
		return err
	}
	fmt.Println("## Figure 3: cross-validation (train on the other data set)")
	fmt.Println("   (normalized control penalties and times on the TESTING input)")
	fmt.Println()
	t := stats.NewTable("bench.test(train)", "greedy self", "greedy cross", "tsp self", "tsp cross",
		"g-self time", "g-cross time", "t-self time", "t-cross time")
	var gs, gc, ts, tc, gst, gct, tst, tct []float64
	for _, r := range rows {
		t.Rowf("%s.%s(%s)|%.3f|%.3f|%.3f|%.3f|%.4f|%.4f|%.4f|%.4f",
			r.Bench, r.TestSet, r.TrainSet,
			r.GreedySelfCP, r.GreedyCrossCP, r.TSPSelfCP, r.TSPCrossCP,
			r.GreedySelfTime, r.GreedyCrossTime, r.TSPSelfTime, r.TSPCrossTime)
		gs = append(gs, r.GreedySelfCP)
		gc = append(gc, r.GreedyCrossCP)
		ts = append(ts, r.TSPSelfCP)
		tc = append(tc, r.TSPCrossCP)
		gst = append(gst, r.GreedySelfTime)
		gct = append(gct, r.GreedyCrossTime)
		tst = append(tst, r.TSPSelfTime)
		tct = append(tct, r.TSPCrossTime)
	}
	t.Rowf("MEAN|%.3f|%.3f|%.3f|%.3f|%.4f|%.4f|%.4f|%.4f",
		stats.Mean(gs), stats.Mean(gc), stats.Mean(ts), stats.Mean(tc),
		stats.Mean(gst), stats.Mean(gct), stats.Mean(tst), stats.Mean(tct))
	fmt.Println(t)
	fmt.Printf("cross-validated: greedy removes %.1f%% of CP (self %.1f%%); TSP removes %.1f%% (self %.1f%%)\n\n",
		stats.PercentRemoved(stats.Mean(gc)), stats.PercentRemoved(stats.Mean(gs)),
		stats.PercentRemoved(stats.Mean(tc)), stats.PercentRemoved(stats.Mean(ts)))
	return nil
}

func printAppendix(s *core.Suite, synth int) error {
	st, err := s.Appendix()
	if err != nil {
		return err
	}
	if synth > 0 {
		syn, err := s.AppendixSynthetic(synth, 40)
		if err != nil {
			return err
		}
		st.Instances = append(st.Instances, syn.Instances...)
		// Recompute aggregates over the union.
		merged, err2 := mergeAppendix(st.Instances)
		if err2 != nil {
			return err2
		}
		st = merged
	}
	fmt.Println("## Appendix: per-procedure DTSP instance statistics")
	fmt.Println()
	t := stats.NewTable("bench/func", "cities", "tour", "AP bound", "HK bound", "runs@best", "exact")
	for _, inst := range st.Instances {
		t.Rowf("%s/%s|%d|%d|%d|%d|%d/%d|%v", inst.Bench, inst.Func, inst.Cities,
			inst.TourCost, inst.APBound, inst.HKBound, inst.RunsAtBest, inst.Runs, inst.Exact)
	}
	fmt.Println(t)
	fmt.Printf("instances: %d; AP tight on %d; AP-gap median (loose instances) %.1f%%; tour > 10x AP on %d\n",
		len(st.Instances), st.APTight, st.APGapMedianPct, st.APGapOver10x)
	fmt.Printf("HK gap: mean %.3f%%, worst %.2f%%; all runs tied on %d; solved exactly: %d\n\n",
		st.HKGapMeanPct, st.HKGapWorstPct, st.AllRunsTied, st.SolvedExactly)
	return nil
}

func mergeAppendix(instances []core.InstanceStats) (*core.AppendixStats, error) {
	out := &core.AppendixStats{Instances: instances}
	core.FinalizeAppendix(out)
	return out, nil
}
