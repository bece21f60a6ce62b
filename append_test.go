package codecomp_test

import (
	"bytes"
	"os"
	"testing"

	"codecomp"
	"codecomp/internal/experiments"
)

// TestAppendBlockEquivalence pins the append-style fast decode path to the
// original per-block decoders: for every synth profile, both ISAs and
// every block codec, AppendBlock must produce bit-identical output to
// Block while leaving the caller's prefix untouched, and so must
// AppendBlockPair over every adjacent pair. Runs the quick
// 4-profile subset by default; FULL_SUITE=1 covers all 18 SPEC95 profiles.
func TestAppendBlockEquivalence(t *testing.T) {
	profiles := experiments.QuickProfiles()
	if os.Getenv("FULL_SUITE") != "" {
		profiles = codecomp.SPEC95()
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			mips := codecomp.GenerateMIPS(p).Text()
			x86 := codecomp.GenerateX86(p).Text()

			samcImg, err := codecomp.CompressSAMC(mips, codecomp.SAMCOptions{Connected: true})
			if err != nil {
				t.Fatal(err)
			}
			sadcMIPS, err := codecomp.CompressSADCMIPS(mips, codecomp.SADCOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sadcX86, err := codecomp.CompressSADCX86(x86, codecomp.SADCOptions{})
			if err != nil {
				t.Fatal(err)
			}
			huffImg, err := codecomp.CompressHuffman(mips, 32)
			if err != nil {
				t.Fatal(err)
			}
			ransImg, err := codecomp.CompressRANS(mips, codecomp.RANSOptions{})
			if err != nil {
				t.Fatal(err)
			}
			samcX86, err := codecomp.CompressSAMC(x86, codecomp.SAMCOptions{WordBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			samcLoaded, err := codecomp.UnmarshalAny(samcImg.Marshal())
			if err != nil {
				t.Fatal(err)
			}

			prefix := []byte("prefix")
			for _, c := range []struct {
				name  string
				codec codecomp.BlockCodec
			}{
				{"SAMC", samcImg},
				{"SADC/MIPS", sadcMIPS},
				{"SADC/x86", sadcX86},
				{"Huffman", huffImg},
				{"RANS", ransImg},
				{"SAMC/x86", samcX86},
				{"SAMC/unmarshaled", samcLoaded},
			} {
				// One buffer reused across every block: the append path must
				// behave with recycled capacity, not just fresh slices.
				buf := append([]byte(nil), prefix...)
				for i := 0; i < c.codec.NumBlocks(); i++ {
					want, err := c.codec.Block(i)
					if err != nil {
						t.Fatalf("%s: Block(%d): %v", c.name, i, err)
					}
					buf, err = codecomp.AppendBlock(c.codec, buf[:len(prefix)], i)
					if err != nil {
						t.Fatalf("%s: AppendBlock(%d): %v", c.name, i, err)
					}
					if !bytes.Equal(buf[:len(prefix)], prefix) {
						t.Fatalf("%s: AppendBlock(%d) clobbered the prefix", c.name, i)
					}
					if !bytes.Equal(buf[len(prefix):], want) {
						t.Fatalf("%s: AppendBlock(%d) diverges from Block", c.name, i)
					}
				}
				// Every adjacent pair, through the codec's two-lane kernel
				// or the two-call fallback, equals two Block calls.
				second := []byte("second")
				for i := 0; i+1 < c.codec.NumBlocks(); i++ {
					wantA, _ := c.codec.Block(i)
					wantB, _ := c.codec.Block(i + 1)
					a, b, err := codecomp.AppendBlockPair(c.codec, buf[:len(prefix)], second, i)
					if err != nil {
						t.Fatalf("%s: AppendBlockPair(%d): %v", c.name, i, err)
					}
					if !bytes.Equal(a, append(append([]byte(nil), prefix...), wantA...)) ||
						!bytes.Equal(b, append([]byte("second"), wantB...)) {
						t.Fatalf("%s: AppendBlockPair(%d) diverges from Block", c.name, i)
					}
					buf, second = a, b[:len("second")]
				}
			}
		})
	}
}
