package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"percival/internal/tensor"
)

// fuzzNet is the small fixed architecture FuzzLoadModel loads into.
func fuzzNet() *Sequential {
	return NewSequential(
		NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewConv2D("c2", tensor.ConvSpec{InC: 3, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
	)
}

// FuzzLoadModel drives the PCVL model decoder with arbitrary bytes: -model
// files are read at daemon start-up, so a corrupt or hostile file must
// yield an error, never a panic. A float32 file that loads must save back
// to its own bytes, and any model that loads must reload from its save.
func FuzzLoadModel(f *testing.F) {
	src := fuzzNet()
	InitHe(src, rand.New(rand.NewSource(9)))
	var full, half bytes.Buffer
	if err := Save(&full, src); err != nil {
		f.Fatal(err)
	}
	if err := SaveCompressed(&half, src); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	f.Add(full.Bytes()[:full.Len()/2]) // truncated mid-weights
	f.Add(half.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		net := fuzzNet()
		if err := Load(bytes.NewReader(data), net); err != nil {
			return
		}
		var out bytes.Buffer
		if err := Save(&out, net); err != nil {
			t.Fatalf("save after a clean load: %v", err)
		}
		if binary.LittleEndian.Uint16(data[4:]) == versionFloat32 && !bytes.Equal(data, out.Bytes()) {
			t.Fatal("a float32 file that loaded does not save back to itself")
		}
		again := fuzzNet()
		if err := Load(&out, again); err != nil {
			t.Fatalf("reload of a re-saved model: %v", err)
		}
	})
}
