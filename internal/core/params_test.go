package core

import (
	"testing"
	"time"
)

func TestParamsValidateFillsDefaults(t *testing.T) {
	p, err := Params{}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if p.Batch != DefaultBatch || p.Safety != DefaultSafety {
		t.Fatalf("B/S = %d/%d", p.Batch, p.Safety)
	}
	if p.Uploaders != DefaultUploaders {
		t.Fatalf("Uploaders = %d", p.Uploaders)
	}
	if p.MaxObjectSize != DefaultMaxObjectSize {
		t.Fatalf("MaxObjectSize = %d", p.MaxObjectSize)
	}
	if p.DumpThreshold != DefaultDumpThreshold {
		t.Fatalf("DumpThreshold = %v", p.DumpThreshold)
	}
	if p.BatchTimeout != DefaultBatchTimeout || p.SafetyTimeout != DefaultSafetyTimeout {
		t.Fatalf("timeouts = %v/%v", p.BatchTimeout, p.SafetyTimeout)
	}
}

func TestParamsValidateRejectsBadConfigs(t *testing.T) {
	tests := []struct {
		name string
		p    Params
	}{
		{"negative batch", Params{Batch: -1}},
		{"safety below batch", Params{Batch: 100, Safety: 10}},
		{"negative uploaders", Params{Uploaders: -2}},
		{"dump threshold below 1", Params{DumpThreshold: 0.5}},
		{"encrypt without password", Params{Encrypt: true}},
		{"negative retention window", Params{RetainFor: -time.Second}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.p.Validate(); err == nil {
				t.Fatalf("accepted %+v", tt.p)
			}
		})
	}
}

func TestParamsPaperRecommendation(t *testing.T) {
	// §5.1: "Ideally, B should be substantially lower than S".
	p := DefaultParams()
	if p.Batch*2 > p.Safety {
		t.Fatalf("defaults violate the paper's B ≪ S guidance: B=%d S=%d", p.Batch, p.Safety)
	}
}

func TestNoLossParams(t *testing.T) {
	p, err := NoLoss().Validate()
	if err != nil {
		t.Fatal(err)
	}
	if p.Batch != 1 || p.Safety != 1 {
		t.Fatalf("NoLoss = B=%d S=%d", p.Batch, p.Safety)
	}
}

func TestParamsCustomValuesPreserved(t *testing.T) {
	in := Params{
		Batch:         7,
		Safety:        70,
		BatchTimeout:  3 * time.Second,
		SafetyTimeout: 9 * time.Second,
		Uploaders:     2,
		MaxObjectSize: 1 << 20,
		DumpThreshold: 2.0,
		Compress:      true,
		RetainFor:     time.Hour,
	}
	out, err := in.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if out.Batch != 7 || out.Safety != 70 || out.Uploaders != 2 ||
		out.MaxObjectSize != 1<<20 || out.DumpThreshold != 2.0 ||
		!out.Compress || out.RetainFor != time.Hour {
		t.Fatalf("custom values clobbered: %+v", out)
	}
}
