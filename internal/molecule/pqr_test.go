package molecule

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPQRRoundTrip(t *testing.T) {
	m := GenerateProtein("rt", 200, 11)
	var buf bytes.Buffer
	if err := WritePQR(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPQR(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != m.N() {
		t.Fatalf("N = %d, want %d", got.N(), m.N())
	}
	for i := range m.Atoms {
		a, b := m.Atoms[i], got.Atoms[i]
		if a.Pos.Dist(b.Pos) > 2e-3 { // PQR keeps 3 decimals
			t.Fatalf("atom %d position drift %v", i, a.Pos.Dist(b.Pos))
		}
		if math.Abs(a.Charge-b.Charge) > 1e-4 || math.Abs(a.Radius-b.Radius) > 1e-3 {
			t.Fatalf("atom %d charge/radius drift", i)
		}
	}
}

func TestReadPQRToleratesComments(t *testing.T) {
	src := `REMARK test
ATOM 1 N ALA 1 1.0 2.0 3.0 -0.3 1.55
HETATM 2 O HOH 2 4.0 5.0 6.0 -0.8 1.52
TER
END
`
	m, err := ReadPQR(strings.NewReader(src), "x")
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 2 {
		t.Fatalf("N = %d, want 2", m.N())
	}
	if m.Atoms[1].Radius != 1.52 || m.Atoms[1].Charge != -0.8 {
		t.Errorf("atom fields wrong: %+v", m.Atoms[1])
	}
}

func TestReadPQRErrors(t *testing.T) {
	if _, err := ReadPQR(strings.NewReader("ATOM 1 2 3\n"), "x"); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ReadPQR(strings.NewReader("ATOM a b c d e f\n"), "x"); err == nil {
		t.Error("non-numeric line accepted")
	}
	for _, r := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
		if _, err := ReadPQR(strings.NewReader("ATOM 1 X MOL 1 1 2 3 0.5 "+r+"\n"), "x"); err == nil {
			t.Errorf("radius %s accepted", r)
		}
	}
}
