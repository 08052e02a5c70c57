// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 7) plus the motivating measurements (Figs. 2 and 4) on
// the simulated substrate. Each generator returns a Report whose rows are
// the series the paper plots at the paper's sizes; cmd/hap-bench prints
// them. Figs. 13–17 time every system on the noiseless simulator and Fig. 18
// draws its noise from a fixed seed per row, so the tables are pinned cell
// for cell in the repository's FIGURES.txt (TestFiguresGolden; regenerate
// with `go test ./internal/experiments -run TestFiguresGolden -update-figures`).
package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"hap/internal/baselines"
	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/hapopt"
	"hap/internal/models"
	"hap/internal/sim"
	"hap/internal/synth"
	"hap/internal/theory"
)

// Report is a printable experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var l strings.Builder
		for i, cell := range cells {
			fmt.Fprintf(&l, "%-*s  ", widths[i], cell)
		}
		b.WriteString(strings.TrimRight(l.String(), " "))
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// simTime is a program's noiseless simulated iteration time. Figs. 13–17
// compare systems, so each of their cells is read off the same
// deterministic clock: two programs the simulator cannot tell apart print
// the same number.
func simTime(cl *cluster.Cluster, p *dist.Program, b [][]float64) float64 {
	return sim.Run(cl, p, b, sim.Options{NoiseSigma: -1}).Time
}

// runHAP optimizes with HAP and returns the noiseless simulated iteration
// time.
func runHAP(g *graph.Graph, cl *cluster.Cluster) (float64, error) {
	res, err := hapopt.Optimize(context.Background(), g, cl, hapopt.Options{Synth: synth.Auto()})
	if err != nil {
		return 0, err
	}
	return simTime(cl, res.Program, res.Ratios), nil
}

func simPlan(cl *cluster.Cluster, p *baselines.Plan) string {
	if p.OOM {
		return "OOM"
	}
	return f3(simTime(cl, p.Program, p.Ratios))
}

// Table1 reports the benchmark models' parameter counts.
func Table1() *Report {
	r := &Report{ID: "table1", Title: "Benchmark models",
		Header: []string{"model", "task", "params(M)", "paper(M)"}}
	rows := []struct {
		m     models.PaperModel
		task  string
		paper string
		g     *graph.Graph
	}{
		{models.ModelVGG19, "Image Classification", "133", models.VGG19(1, 224, 10)},
		{models.ModelViT, "Image Classification", "54", models.ViT(models.ViTConfig(), 197, 768, 10)},
		{models.ModelBERTBase, "Language Model", "102", models.BERT(models.BERTBase(), 128)},
		{models.ModelBERTMoE, "Language Model", "84+36m (ours: 84+28m)", models.BERT(models.BERTMoE(8), 128)},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{string(row.m), row.task,
			fmt.Sprintf("%.1f", float64(row.g.ParameterCount())/1e6), row.paper})
	}
	return r
}

// Fig2 sweeps the computation-to-communication ratio of an FC layer on the
// P100+A100 pair and compares CP and EV sharding ratios (Sec. 2.4).
func Fig2() *Report {
	r := &Report{ID: "fig2", Title: "CP vs EV under varying computation-to-communication ratio",
		Header: []string{"batch", "comp/comm", "CP(ms)", "EV(ms)"}}
	cl := cluster.PaperP100A100Pair()
	// Under data parallelism both computation and gradient volume scale
	// with hidden², so the computation-to-communication ratio is steered by
	// the batch size (the paper steers it with the hidden dim under model
	// parallelism; the trade-off probed is the same).
	const h = 512
	for _, batch := range []int{64, 256, 1024, 4096, 16384} {
		g := models.Training(models.MLP(batch, h, h, h))
		p, err := baselines.DPCP(g, cl)
		if err != nil {
			continue
		}
		bcp := cost.UniformRatios(1, cl.ProportionalRatios())
		cp := cost.Evaluate(cl, p.Program, bcp)
		ev := cost.Evaluate(cl, p.Program, cost.UniformRatios(1, cl.EvenRatios()))
		// Communication at the CP ratios: a reduce-scatter or padded
		// all-gather stage also pays a term in the largest ratio, which is
		// communication, not computation.
		comm := 0.0
		for _, st := range cost.Extract(cl, p.Program).Stages {
			comm += st.CommConst + st.CommMaxCoef*slices.Max(bcp[st.CommSeg])
		}
		ratio := 0.0
		if comm > 0 {
			ratio = (cp - comm) / comm
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(batch), f3(ratio), f3(cp * 1e3), f3(ev * 1e3)})
	}
	return r
}

// Fig4 sweeps shard skew for a 4 MB tensor and reports the effective
// bandwidth of padded All-Gather vs grouped Broadcast (Sec. 2.5.1).
func Fig4() *Report {
	r := &Report{ID: "fig4", Title: "Padded All-Gather vs grouped Broadcast (4MB tensor)",
		Header: []string{"maxRatio", "padded(GB/s)", "grouped(GB/s)"}}
	cl := cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.A100, GPUs: 2},
		cluster.MachineSpec{Type: cluster.A100, GPUs: 2})
	const bytes = 4 << 20
	for mr := 0.25; mr <= 1.0001; mr += 0.05 {
		rest := (1 - mr) / 3
		ratios := []float64{mr, rest, rest, rest}
		pad := collective.Time(cl, collective.PaddedAllGather, bytes, ratios)
		grp := collective.Time(cl, collective.GroupedBroadcast, bytes, ratios)
		r.Rows = append(r.Rows, []string{f3(mr), f3(bytes / pad / 1e9), f3(bytes / grp / 1e9)})
	}
	return r
}

// systemsRow runs all systems on one model×cluster point.
func systemsRow(m models.PaperModel, cl *cluster.Cluster, withCP bool) []string {
	g := models.Build(m, cl.TotalGPUs())
	row := []string{string(m), fmt.Sprint(cl.TotalGPUs())}
	if hapT, err := runHAP(g, cl); err == nil {
		row = append(row, f3(hapT))
	} else {
		row = append(row, "ERR")
	}
	if p, err := baselines.DPEV(g, cl); err == nil {
		row = append(row, simPlan(cl, p))
	} else {
		row = append(row, "ERR")
	}
	if withCP {
		if p, err := baselines.DPCP(g, cl); err == nil {
			row = append(row, simPlan(cl, p))
		} else {
			row = append(row, "ERR")
		}
	}
	if p, err := baselines.DeepSpeed(g, cl); err == nil {
		row = append(row, simPlan(cl, p))
	} else {
		row = append(row, "ERR")
	}
	// TAG runs only on VGG19 and BERT-Base (Sec. 7.1).
	if m == models.ModelVGG19 || m == models.ModelBERTBase {
		if p, err := baselines.TAG(g, cl); err == nil {
			row = append(row, simPlan(cl, p))
		} else {
			row = append(row, "ERR")
		}
	} else {
		row = append(row, "-")
	}
	return row
}

// Fig13 reproduces per-iteration time on the heterogeneous cluster.
func Fig13() *Report {
	r := &Report{ID: "fig13", Title: "Per-iteration time, heterogeneous cluster (2×8 V100 + 6×8 P100)",
		Header: []string{"model", "GPUs", "HAP(s)", "DP-EV(s)", "DP-CP(s)", "DeepSpeed(s)", "TAG(s)"}}
	for _, m := range models.AllPaperModels {
		for _, k := range []int{1, 2, 4, 8} { // ×8 machines ⇒ 8, 16, 32, 64 GPUs
			r.Rows = append(r.Rows, systemsRow(m, cluster.PaperHeterogeneous(k), true))
		}
	}
	return r
}

// Fig14 reproduces per-iteration time on the homogeneous subset.
func Fig14() *Report {
	r := &Report{ID: "fig14", Title: "Per-iteration time, homogeneous cluster (4×8 P100)",
		Header: []string{"model", "GPUs", "HAP(s)", "DP-EV(s)", "DeepSpeed(s)", "TAG(s)"}}
	for _, m := range models.AllPaperModels {
		for _, k := range []int{2, 4, 6, 8} { // ×4 machines ⇒ 8, 16, 24, 32 GPUs
			r.Rows = append(r.Rows, systemsRow(m, cluster.PaperHomogeneous(k), false))
		}
	}
	return r
}

// Fig15 reproduces the ablation study: DP-EV → +Q → +B → +C throughput.
func Fig15() *Report {
	r := &Report{ID: "fig15", Title: "Ablation: throughput relative to DP-EV (%)",
		Header: []string{"model", "DP-EV", "+Q", "+QB", "+QBC"}}
	cl := cluster.PaperHeterogeneous(8)
	for _, m := range models.AllPaperModels {
		g := models.Build(m, cl.TotalGPUs())
		base := math.Inf(1)
		if p, err := baselines.DPEV(g, cl); err == nil && !p.OOM {
			base = simTime(cl, p.Program, p.Ratios)
		}
		noOpt := synth.Auto()
		noOpt.DisableGroupedBroadcast = true
		noOpt.DisableSFB = true
		variant := func(o hapopt.Options) string {
			res, err := hapopt.Optimize(context.Background(), g, cl, o)
			if err != nil {
				return "ERR"
			}
			t := simTime(cl, res.Program, res.Ratios)
			if math.IsInf(base, 1) {
				return "DP-OOM/" + f3(t)
			}
			return fmt.Sprintf("%.0f", base/t*100)
		}
		q := variant(hapopt.Options{Synth: noOpt, FixedRatios: cl.EvenRatios()})
		qb := variant(hapopt.Options{Synth: noOpt})
		qbc := variant(hapopt.Options{Synth: synth.Auto()})
		r.Rows = append(r.Rows, []string{string(m), "100", q, qb, qbc})
	}
	return r
}

// Fig16 compares HAP on the whole heterogeneous cluster against training
// two models concurrently on homogeneous subclusters.
func Fig16() *Report {
	r := &Report{ID: "fig16", Title: "HAP vs concurrent subcluster training (total throughput %)",
		Header: []string{"model", "concurrent(V100)", "concurrent(P100)", "HAP(%)"}}
	const k = 8
	full := cluster.PaperHeterogeneous(k)
	v100s := cluster.FromMachines(cluster.DefaultNetwork(), k,
		cluster.MachineSpec{Type: cluster.V100, GPUs: 8}, cluster.MachineSpec{Type: cluster.V100, GPUs: 8})
	p100s := cluster.FromMachines(cluster.DefaultNetwork(), k,
		cluster.MachineSpec{Type: cluster.P100, GPUs: 8}, cluster.MachineSpec{Type: cluster.P100, GPUs: 8},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 8}, cluster.MachineSpec{Type: cluster.P100, GPUs: 8},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 8}, cluster.MachineSpec{Type: cluster.P100, GPUs: 8})
	for _, m := range models.AllPaperModels {
		thr := func(cl *cluster.Cluster) float64 {
			t, err := runHAP(models.Build(m, cl.TotalGPUs()), cl)
			if err != nil {
				return 0
			}
			return float64(models.PerDeviceBatch(m)*cl.TotalGPUs()) / t
		}
		tv, tp, th := thr(v100s), thr(p100s), thr(full)
		total := tv + tp
		if total == 0 {
			continue
		}
		r.Rows = append(r.Rows, []string{string(m),
			fmt.Sprintf("%.0f", tv/total*100), fmt.Sprintf("%.0f", tp/total*100),
			fmt.Sprintf("%.0f", th/total*100)})
	}
	return r
}

// Fig17 reproduces uneven expert placement: BERT-MoE with 4, 6, ..., 32
// experts on 2×A100 + 2×P100, HAP vs DeepSpeed (which pads experts to a
// multiple of the 4 devices, so every other row trains a larger model).
func Fig17() *Report {
	r := &Report{ID: "fig17", Title: "BERT-MoE uneven expert placement (2×A100 + 2×P100)",
		Header: []string{"experts", "HAP(s)", "DeepSpeed(s)", "padded-experts"}}
	cl := cluster.PaperA100P100()
	for e := 4; e <= 32; e += 2 {
		build := func(experts int) *graph.Graph {
			cfg := models.BERTMoE(4)
			cfg.Experts = experts
			cfg.Layers = 4
			cfg.Vocab = 8192
			// Tokens proportional to experts to keep per-expert load fixed.
			return models.Training(models.BERT(cfg, 256*e))
		}
		row := []string{fmt.Sprint(e)}
		if t, err := runHAP(build(e), cl); err == nil {
			row = append(row, f3(t))
		} else {
			row = append(row, "ERR")
		}
		padded := baselines.PadExperts(e, cl.M())
		if p, err := baselines.DeepSpeed(build(padded), cl); err == nil {
			row = append(row, simPlan(cl, p), fmt.Sprint(padded))
		} else {
			row = append(row, "ERR", fmt.Sprint(padded))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig18 compares the cost model's estimate against simulated "actual" time
// across BERT variants and reports the Pearson correlation. Noise is what
// this figure measures, so each row keeps its own simulator seed.
func Fig18() *Report {
	r := &Report{ID: "fig18", Title: "Cost model accuracy (BERT variants)",
		Header: []string{"layers", "hidden", "estimated(s)", "actual(s)"}}
	cl := cluster.PaperHeterogeneous(1)
	var est, act []float64
	for _, l := range []int{2, 4, 6, 8} {
		for _, h := range []int{256, 512, 768} {
			cfg := models.TransformerConfig{Layers: l, Hidden: h, FFN: 4 * h, SeqLen: 128, Vocab: 8192}
			g := models.Training(models.BERT(cfg, 64*8*32))
			res, err := hapopt.Optimize(context.Background(), g, cl, hapopt.Options{Synth: synth.Auto()})
			if err != nil {
				continue
			}
			e := res.Cost
			a := sim.IterationTime(cl, res.Program, res.Ratios, int64(l*100+h))
			est = append(est, e)
			act = append(act, a)
			r.Rows = append(r.Rows, []string{fmt.Sprint(l), fmt.Sprint(h), f3(e), f3(a)})
		}
	}
	r.Rows = append(r.Rows, []string{"pearson", "", f3(Pearson(est, act)), ""})
	return r
}

// Fig19 measures program-synthesis time as the layer count grows.
func Fig19() *Report {
	r := &Report{ID: "fig19", Title: "Program synthesis time vs model depth (ViT)",
		Header: []string{"layers", "synthesis(s)", "instructions"}}
	cl := cluster.PaperHeterogeneous(1)
	for _, l := range []int{2, 4, 8, 12, 16, 20, 24} {
		cfg := models.ViTConfig()
		cfg.Layers = l
		g := models.Training(models.ViT(cfg, 64*8*cfg.SeqLen/4, 768, 10))
		th := theory.New(g)
		b := cost.UniformRatios(1, cl.ProportionalRatios())
		start := time.Now()
		p, _, err := synth.Synthesize(context.Background(), g, th, cl, b, synth.Auto())
		if err != nil {
			r.Rows = append(r.Rows, []string{fmt.Sprint(l), "ERR", ""})
			continue
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(l),
			f3(time.Since(start).Seconds()), fmt.Sprint(len(p.Instrs))})
	}
	return r
}

// Pearson returns the Pearson correlation coefficient of two series.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var num, dx, dy float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		dx += (x[i] - mx) * (x[i] - mx)
		dy += (y[i] - my) * (y[i] - my)
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

// All lists the experiment generators by id.
var All = map[string]func() *Report{
	"table1": Table1, "fig2": Fig2, "fig4": Fig4, "fig13": Fig13, "fig14": Fig14,
	"fig15": Fig15, "fig16": Fig16, "fig17": Fig17, "fig18": Fig18, "fig19": Fig19,
}

// Order is the presentation order of experiment ids.
var Order = []string{"table1", "fig2", "fig4", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19"}
