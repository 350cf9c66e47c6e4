package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"coalloc/internal/dastrace"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

// pinFields renders every field of a result struct, floats in shortest
// round-trip form, so equal renderings mean bit-identical results.
func pinFields(v any) string {
	rv := reflect.ValueOf(v)
	var b strings.Builder
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		b.WriteString(" " + rv.Type().Field(i).Name + "=")
		switch f.Kind() {
		case reflect.Float64:
			b.WriteString(strconv.FormatFloat(f.Float(), 'g', -1, 64))
		default:
			fmt.Fprint(&b, f.Interface())
		}
	}
	return b.String()
}

// driverPinPolicies are the policies the replay and backlog pins cover:
// the single-queue FCFS, both local-queue policies and the backfilling
// profile policy.
var driverPinPolicies = []string{"GS", "LS", "LP", "GS-CONS"}

// TestDriverOutputsPinned pins the exact outputs of trace replay and
// constant backlog: every ReplayResult field at load factors 1 and 10,
// every BacklogResult field over a short window, and the SHA-256 digests
// of an observed replay's JSONL trace, metrics block and schedule CSV.
// The expected values were recorded before the drivers were merged into
// the open-system simulation; any drift in either mode fails here.
func TestDriverOutputsPinned(t *testing.T) {
	recs := dastrace.Generate(dastrace.GenConfig{NumJobs: 3000, Span: 600_000, Seed: 42})
	var got strings.Builder
	for _, load := range []float64{1, 10} {
		for _, pol := range driverPinPolicies {
			r, err := Replay(ReplayConfig{
				ClusterSizes:    []int{32, 32, 32, 32},
				Records:         recs,
				Policy:          pol,
				ComponentLimit:  16,
				ExtensionFactor: workload.DefaultExtensionFactor,
				LoadFactor:      load,
				Seed:            3,
			})
			if err != nil {
				t.Fatalf("replay %s load %g: %v", pol, load, err)
			}
			fmt.Fprintf(&got, "replay load=%g%s\n", load, pinFields(r))
		}
	}
	for _, pol := range driverPinPolicies {
		r, err := RunBacklog(BacklogConfig{
			ClusterSizes: []int{32, 32, 32, 32},
			Spec:         testSpec(t, 16, 4),
			Policy:       pol,
			WarmupTime:   5000,
			MeasureTime:  40000,
			Seed:         5,
		})
		if err != nil {
			t.Fatalf("backlog %s: %v", pol, err)
		}
		fmt.Fprintf(&got, "backlog%s\n", pinFields(r))
	}
	r, err := RunBacklog(BacklogConfig{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 24, 4),
		Policy:       "LS",
		QueueWeights: Unbalanced(4),
		WarmupTime:   5000,
		MeasureTime:  40000,
		Seed:         5,
	})
	if err != nil {
		t.Fatalf("unbalanced backlog: %v", err)
	}
	fmt.Fprintf(&got, "backlog unbalanced%s\n", pinFields(r))

	var trace, sched bytes.Buffer
	o := obs.New(&trace)
	if _, err := Replay(ReplayConfig{
		ClusterSizes:    []int{32, 32, 32, 32},
		Records:         recs[:1000],
		Policy:          "LS",
		ComponentLimit:  16,
		ExtensionFactor: workload.DefaultExtensionFactor,
		LoadFactor:      4,
		QueueWeights:    Unbalanced(4),
		Seed:            9,
		ScheduleWriter:  &sched,
		Observer:        o,
	}); err != nil {
		t.Fatalf("observed replay: %v", err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if err := o.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "trace %x\nmetrics %x\nschedule %x\n",
		sha256.Sum256(trace.Bytes()), sha256.Sum256(metrics.Bytes()), sha256.Sum256(sched.Bytes()))

	if got.String() != driverPin {
		t.Errorf("driver outputs drifted from the pin\ngot:\n%s\nwant:\n%s", got.String(), driverPin)
	}
}

const driverPin = `replay load=1 Policy=GS Jobs=3000 MeanResponse=284.07752611390686 MedianResponse=58.55587901450885 P95Response=1132.3924863615327 MeanSlowdown=6.140774818385606 Makespan=611039.3617714472 GrossUtilization=0.17000496995153108 NetUtilization=0.13889104639176164 MaxQueue=52
replay load=1 Policy=LS Jobs=3000 MeanResponse=272.3580630252293 MedianResponse=56.10704730277672 P95Response=986.6950980925947 MeanSlowdown=5.690463415855338 Makespan=611039.3617714472 GrossUtilization=0.17000496995153108 NetUtilization=0.13889104639176164 MaxQueue=52
replay load=1 Policy=LP Jobs=3000 MeanResponse=272.7290579015832 MedianResponse=57.20605787215596 P95Response=872.1610026186052 MeanSlowdown=5.669989836333068 Makespan=611039.3617714472 GrossUtilization=0.17000496995153108 NetUtilization=0.13889104639176164 MaxQueue=52
replay load=1 Policy=GS-CONS Jobs=3000 MeanResponse=258.2866944683664 MedianResponse=54.28983756192769 P95Response=913.6508646104817 MeanSlowdown=5.032119183558444 Makespan=611039.3617714472 GrossUtilization=0.17000496995153108 NetUtilization=0.13889104639176164 MaxQueue=52
replay load=10 Policy=GS Jobs=3000 MeanResponse=48922.95443672369 MedianResponse=44854.67583652419 P95Response=95774.8194141335 MeanSlowdown=1977.4779978388037 Makespan=162162.96886499142 GrossUtilization=0.6405884713645232 NetUtilization=0.5233494239590986 MaxQueue=1767
replay load=10 Policy=LS Jobs=3000 MeanResponse=46131.99603978923 MedianResponse=50750.906738393685 P95Response=92644.46678520742 MeanSlowdown=1863.0406459333913 Makespan=154843.81666386695 GrossUtilization=0.6708677851997054 NetUtilization=0.5480870865332698 MaxQueue=1764
replay load=10 Policy=LP Jobs=3000 MeanResponse=31473.636148955786 MedianResponse=10125.302655769288 P95Response=98757.46052163417 MeanSlowdown=1279.164862829987 Makespan=165811.4579081118 GrossUtilization=0.6264930641567928 NetUtilization=0.5118337261712174 MaxQueue=1012
replay load=10 Policy=GS-CONS Jobs=3000 MeanResponse=26667.16720322948 MedianResponse=25990.717637852795 P95Response=52696.03460144591 MeanSlowdown=1064.4406577856028 Makespan=118107.12145407964 GrossUtilization=0.8795382281630357 NetUtilization=0.7185671388662821 MaxQueue=1571
backlog Policy=GS MaxGrossUtilization=0.5886202724181077 MaxNetUtilization=0.48304975704359193 Throughput=0.022775 Jobs=911
backlog Policy=LS MaxGrossUtilization=0.6335779467426585 MaxNetUtilization=0.5199441602392287 Throughput=0.025275 Jobs=1011
backlog Policy=LP MaxGrossUtilization=0.5924048809224433 MaxNetUtilization=0.4861555865642338 Throughput=0.0233 Jobs=932
backlog Policy=GS-CONS MaxGrossUtilization=0.8965199010273888 MaxNetUtilization=0.7357268185768706 Throughput=0.037775 Jobs=1511
backlog unbalanced Policy=LS MaxGrossUtilization=0.5074225696281742 MaxNetUtilization=0.43341202478509844 Throughput=0.021025 Jobs=841
trace 5713f535e92f1b1979b394a53e7c5bb2b7b7f376a9c53dbd785848f2566ba5c0
metrics a7e46286a2fe6ffa00806d6920fee02672efbf638e568f639a63aec8b1dfca34
schedule 58c3894120e6e6e2de63a69ae5f5b47682e960b80f9ef98b21c591aecba998ed
`
