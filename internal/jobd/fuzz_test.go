package jobd

import (
	"bytes"
	"testing"

	"gcs/internal/sim"
)

// FuzzJobSpecDecode hammers the HTTP admission path's decoder with
// arbitrary bytes: decoding must never panic, an accepted spec must
// expand and validate without panicking, and everything that survives
// validation must have a stable identity across the canonical round
// trip — the property Resume depends on.
func FuzzJobSpecDecode(f *testing.F) {
	f.Add([]byte(`{"ns":[8],"topos":["ring"],"drivers":["constant"],"churns":["none"],"seed":7,"horizon":2}`))
	f.Add([]byte(`{"ns":[8,12],"topos":["ring","grid"],"drivers":["randomwalk","bangbang"],` +
		`"churns":["none","rotatingstar"],"seed":1,"horizon":10,"faults":{"Drop":0.1}}`))
	f.Add([]byte(`{"ns":[-3],"topos":[""],"drivers":["warp"],"churns":["none"]}`))
	f.Add([]byte(`{"ns":[8],"topoz":["ring"]}`))
	f.Add([]byte(`{"ns":[8]} trailing`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"ns":[8],"topos":["ring"],"drivers":["constant"],"churns":["none"],"rho":-1}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		cells, err := spec.Cells()
		if err != nil || sim.ValidateCells(cells) != nil {
			return
		}
		// A validated spec must carry a deterministic identity that
		// survives its canonical JSON.
		if len(cells) == 0 || len(cells) > MaxCells {
			t.Fatalf("validated spec expanded to %d cells", len(cells))
		}
		id1, err := spec.ID()
		if err != nil {
			t.Fatalf("validated spec has no ID: %v", err)
		}
		canon, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(canon)
		if err != nil {
			t.Fatalf("canonical JSON does not decode: %v", err)
		}
		id2, err := back.ID()
		if err != nil || id1 != id2 {
			t.Fatalf("identity unstable across canonical round trip: %q vs %q (%v)", id1, id2, err)
		}
		canon2, err := back.CanonicalJSON()
		if err != nil || !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical JSON is not a fixed point (%v)", err)
		}
	})
}
