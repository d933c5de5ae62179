package netsim

import (
	"fmt"
	"slices"
	"testing"

	"pbbf/internal/protocol"
	"pbbf/internal/stats"
)

// summarizeAcc renders an accumulator's count, mean, variance and range.
func summarizeAcc(a *stats.Accumulator) string {
	return fmt.Sprintf("%d/%v/%v/%v/%v", a.N(), a.Mean(), a.Variance(), a.Min(), a.Max())
}

// summarize renders every Result field, so a change of draw order, event
// order, energy account or accumulation order moves the string.
func summarize(r *Result) string {
	s := fmt.Sprintf("gen=%d energy=%v recv=%v lat=%s", r.UpdatesGenerated, r.EnergyPerUpdateJ,
		r.UpdatesReceivedFraction, summarizeAcc(&r.Latency))
	hops := make([]int, 0, len(r.LatencyAtHop))
	for h := range r.LatencyAtHop {
		hops = append(hops, h)
	}
	slices.Sort(hops)
	for _, h := range hops {
		s += fmt.Sprintf(" h%d=%d:%s", h, r.NodesAtHop[h], summarizeAcc(r.LatencyAtHop[h]))
	}
	s += fmt.Sprintf(" died=%d depleted=%d first=%v half=%v cov=%v evar=%v frames=%d/%d/%d",
		r.NodesDied, r.NodesDepleted, r.TimeToFirstDeathS, r.TimeToHalfDeadS,
		r.CoverageOverTime, r.EnergyVarianceJ2, r.FramesStarted, r.FramesDelivered, r.FramesCollided)
	return s
}

// pinnedConfigs is poolTestConfigs (every conditional RNG split: loss, link
// loss, churn, hetero, adaptive, finite energy with harvest) followed by the
// two rival protocols on their shared arena.
func pinnedConfigs(t *testing.T) []Config {
	t.Helper()
	return append(poolTestConfigs(t),
		protoScenario(t, protocol.Spec{Name: protocol.NameSleepSched}, 14),
		protoScenario(t, protocol.Spec{Name: protocol.NameOLA, RelayThreshold: 2}, 14),
	)
}

// TestPinnedResults pins exact results recorded from the one-shot engine
// that built a fresh kernel, channel and node fleet for every run, before
// RunPool became the only implementation.
func TestPinnedResults(t *testing.T) {
	want := []string{
		"gen=3 energy=1.2612421666338003 recv=0.6321839080459769 lat=55/18.086049818472727/71.16896201564916/1.046666666/34.04263996 h1=2:4/8.303875066500002/51.13075587013626/1.046666666/18.16917412 h2=10:20/14.04699017395/25.052281964472478/7.062496406/21.283248357 died=0 depleted=0 first=0 half=0 cov=[] evar=0.42973032847022985 frames=87/582/12",
		"gen=3 energy=1.2651159860733334 recv=0.6811594202898551 lat=47/10.926502555000003/66.42833070072933/1.031666666/36.467513021 h1=13:28/7.959621773357142/60.50303349938391/1.031666666/27.219634268 h2=10:19/15.298747917421052/45.13558683586993/1.110333332/36.467513021 died=0 depleted=0 first=0 half=0 cov=[] evar=0.3737378391274788 frames=80/436/4",
		"gen=3 energy=1.2763176388544166 recv=0.6956521739130435 lat=48/17.871613961583332/107.1391396812379/1.049666666/42.891844207 h1=5:14/6.971169703642856/44.2646515075343/1.049666666/22.497699318 h2=4:9/14.632524010111112/48.634936043310724/2.487446003/24.439085796 died=0 depleted=0 first=0 half=0 cov=[] evar=0.4117010448689431 frames=73/370/14",
		"gen=3 energy=1.2720229657943976 recv=0.8840579710144925 lat=61/15.949371661360656/98.42860557127523/1.039666666/46.273539849 h1=6:17/7.664078930823529/16.222329896574333/1.039666666/13.96387877 h2=9:23/15.046792652695652/26.40789945314433/1.102333332/28.766398824 died=6 depleted=0 first=0 half=0 cov=[] evar=1.4621450885285299 frames=99/588/9",
		"gen=3 energy=1.374282472172167 recv=0.9710144927536232 lat=67/19.302295159388056/180.82845347226504/1.043666666/55.257367256 h1=10:30/10.163447624633335/47.50938845728322/1.043666666/17.690640897 h2=8:22/19.786393390136368/101.29582004150932/1.080333332/47.399053254 died=0 depleted=0 first=0 half=0 cov=[] evar=0.5581649438792198 frames=106/883/7",
		"gen=3 energy=1.4809328499405003 recv=0.9649122807017543 lat=55/20.91041682585455/188.86082398988935/4.198515653/57.529906164 h1=6:18/6.61994198/3.614241598677232/4.198515653/8.680770727 h2=2:6/21.36162958966667/333.6541964025169/7.039206226/57.529906164 died=0 depleted=0 first=0 half=0 cov=[] evar=0.3200713245507316 frames=105/456/2",
		"gen=3 energy=0.2111856980320408 recv=0.21739130434782605 lat=15/7.761255559733334/19.73317704217072/3.173483082/11.827056477 h1=7:7/3.173483082/0/3.173483082/3.173483082 h2=5:5/11.754789811399998/0.0016320221740444465/11.736723145/11.827056477 died=0 depleted=24 first=17.371918052 half=30 cov=[1 0.4583333333333333 0.3333333333333333 0.16666666666666666 0.041666666666666664 0.041666666666666664 0 0 0 0 0] evar=0.010605833442802415 frames=21/107/5",
		"gen=3 energy=1.6421825554210665 recv=1 lat=87/30.17657822604597/446.1142163964889/0.056666666/90.443799497 h2=10:30/29.833844020500003/168.427268472547/10.823159019/60.443537388 died=0 depleted=0 first=0 half=0 cov=[] evar=0.04498564138885186 frames=356/1912/10",
		"gen=3 energy=3.001118222194268 recv=1 lat=87/0.14872413629885062/0.008844881550397938/0.045666666/0.403666664 h2=10:30/0.16811110926666667/0.005946393287637294/0.077333332/0.362999998 died=0 depleted=0 first=0 half=0 cov=[] evar=8.302647387381512e-07 frames=74/397/76",
	}
	pool := NewRunPool()
	for i, cfg := range pinnedConfigs(t) {
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		reused, err := pool.Run(cfg)
		if err != nil {
			t.Fatalf("config %d reused pool: %v", i, err)
		}
		for name, res := range map[string]*Result{"fresh": fresh, "reused": reused} {
			if got := summarize(res); got != want[i] {
				t.Errorf("config %d %s:\n got %s\nwant %s", i, name, got, want[i])
			}
		}
	}
}
