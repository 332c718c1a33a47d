// Typed-error surface tests: every failure class the public API
// documents must be matchable with errors.Is / errors.As through all
// the layers that wrap it — registry, workload, tracefile, sim, and
// the batch runner.
package banshee_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"banshee"
)

// errCfg is a minimal valid config the error tests mutate.
func errCfg() banshee.Config {
	cfg := banshee.DefaultConfig()
	cfg.Cores = 2
	cfg.InstrPerCore = 20_000
	return cfg
}

func TestTypedErrors(t *testing.T) {
	dir := t.TempDir()

	// A corrupt recording: structurally damaged .btrc.
	corrupt := filepath.Join(dir, "corrupt.btrc")
	if err := os.WriteFile(corrupt, []byte("BTRCgarbage-not-a-real-trace-file"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A too-short recording: the run fails at the first read past its end.
	short := filepath.Join(dir, "short.btrc")
	if err := banshee.RecordTrace(short, "mcf", banshee.RecordOptions{
		Cores: 2, Seed: 3, EventsPerCore: 500,
	}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"unknown scheme via Run", func() error {
			_, err := banshee.Run(errCfg(), "pagerank", "NoSuchScheme")
			return err
		}, banshee.ErrUnknownScheme},
		{"unknown scheme via ParseScheme", func() error {
			_, err := banshee.ParseScheme("NoSuchScheme")
			return err
		}, banshee.ErrUnknownScheme},
		{"unknown scheme via RunBatch", func() error {
			_, err := banshee.RunBatch(context.Background(), banshee.Matrix{
				Name: "err", Base: errCfg(),
				Workloads: []string{"pagerank"}, Schemes: []string{"NoSuchScheme"},
			}, banshee.BatchOptions{})
			return err
		}, banshee.ErrUnknownScheme},
		{"unknown workload via Run", func() error {
			_, err := banshee.Run(errCfg(), "nosuchworkload", "Banshee")
			return err
		}, banshee.ErrUnknownWorkload},
		{"unknown workload via NewSession", func() error {
			_, err := banshee.NewSession(errCfg(), "nosuchworkload", "Banshee")
			return err
		}, banshee.ErrUnknownWorkload},
		{"unknown workload via RecordTrace", func() error {
			return banshee.RecordTrace(filepath.Join(dir, "x.btrc"), "nosuchworkload", banshee.RecordOptions{Cores: 2})
		}, banshee.ErrUnknownWorkload},
		{"corrupt trace via OpenTrace", func() error {
			_, err := banshee.OpenTrace(corrupt)
			return err
		}, banshee.ErrTraceCorrupt},
		{"corrupt trace via Run", func() error {
			cfg := errCfg()
			cfg.Cores = 0
			_, err := banshee.Run(cfg, "file:"+corrupt, "Banshee")
			return err
		}, banshee.ErrTraceCorrupt},
		{"wrapped trace via Run", func() error {
			cfg := errCfg()
			cfg.Cores = 0
			_, err := banshee.Run(cfg, "file:"+short, "Banshee")
			return err
		}, banshee.ErrTraceWrapped},
		{"cancellation via Session.Run", func() error {
			sess, err := banshee.NewSession(errCfg(), "pagerank", "Banshee")
			if err != nil {
				return err
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err = sess.Run(ctx)
			return err
		}, context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("no error returned")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.want)
			}
		})
	}
}

func TestConfigErrorFields(t *testing.T) {
	cases := []struct {
		name  string
		run   func() error
		field string
	}{
		{"negative MSHRs", func() error {
			cfg := errCfg()
			cfg.MSHRs = -1
			_, err := banshee.Run(cfg, "pagerank", "Banshee")
			return err
		}, "MSHRs"},
		{"warmup fraction out of range", func() error {
			cfg := errCfg()
			cfg.WarmupFrac = 1.5
			_, err := banshee.Run(cfg, "pagerank", "Banshee")
			return err
		}, "WarmupFrac"},
		{"negative cores", func() error {
			cfg := errCfg()
			cfg.Cores = -3
			_, err := banshee.Run(cfg, "pagerank", "Banshee")
			return err
		}, "Cores"},
		{"zero instruction budget", func() error {
			cfg := errCfg()
			cfg.InstrPerCore = 0
			_, err := banshee.Run(cfg, "pagerank", "Banshee")
			return err
		}, "InstrPerCore"},
		{"Banshee 2M without large pages", func() error {
			_, err := banshee.Run(errCfg(), "pagerank", "Banshee 2M")
			return err
		}, "LargePages"},
		{"trace core-count mismatch", func() error {
			path := filepath.Join(t.TempDir(), "c.btrc")
			if err := banshee.RecordTrace(path, "mcf", banshee.RecordOptions{
				Cores: 2, EventsPerCore: 100,
			}); err != nil {
				return err
			}
			cfg := errCfg()
			cfg.Cores = 7 // recording holds 2
			_, err := banshee.Run(cfg, "file:"+path, "Banshee")
			return err
		}, "Cores"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("no error returned")
			}
			var ce *banshee.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("errors.As(%v, *ConfigError) = false", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q (err: %v)", ce.Field, tc.field, err)
			}
		})
	}
}
