package core

import (
	"reflect"
	"testing"
)

// TestFingerprintCoversEveryField perturbs each field of the pipeline,
// cache and predictor configurations in turn and requires the fingerprint
// to change. A field added later without being hashed would let a
// snapshot recorded under one timing model replay under another, silently
// producing wrong timing; this test fails first.
func TestFingerprintCoversEveryField(t *testing.T) {
	p := build(t, "main:\n\thalt\n")
	base := DefaultConfig()
	want := Fingerprint(p, &base)
	sections := []struct {
		name string
		get  func(c *Config) reflect.Value
	}{
		{"Uarch", func(c *Config) reflect.Value { return reflect.ValueOf(&c.Uarch).Elem() }},
		{"Cache", func(c *Config) reflect.Value { return reflect.ValueOf(&c.Cache).Elem() }},
		{"BPred", func(c *Config) reflect.Value { return reflect.ValueOf(&c.BPred).Elem() }},
	}
	for _, sec := range sections {
		typ := sec.get(&base).Type()
		for i := 0; i < typ.NumField(); i++ {
			cfg := DefaultConfig()
			f := sec.get(&cfg).Field(i)
			switch f.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			default:
				t.Fatalf("%s.%s: kind %v has no perturbation; extend this test and fingerprint",
					sec.name, typ.Field(i).Name, f.Kind())
			}
			if Fingerprint(p, &cfg) == want {
				t.Errorf("%s.%s is not part of the fingerprint", sec.name, typ.Field(i).Name)
			}
		}
	}
}
