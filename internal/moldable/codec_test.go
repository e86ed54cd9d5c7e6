package moldable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/wirejson"
)

// marshalReference is the reflection encoder the appender replaced:
// json.Marshal of the flattened instance schema.
func marshalReference(in *Instance) ([]byte, error) {
	out := instanceJSON{M: in.M, Jobs: make([]jobJSON, 0, in.N())}
	for i, j := range in.Jobs {
		jj, err := encodeJob(j)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		out.Jobs = append(out.Jobs, jj)
	}
	return json.Marshal(out)
}

// mixedInstance has every job family, the Capped/Scaled flattening
// cases, and floats at every edge of encoding/json's format switch.
func mixedInstance(t *testing.T) *Instance {
	t.Helper()
	pw, err := NewPiecewise([]int{1, 4, 16}, []Time{12, 6.5, 3})
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{M: 1 << 20, Jobs: []Job{
		Amdahl{Seq: 1.5, Par: 10},
		Amdahl{Seq: 0, Par: 1e21},
		Amdahl{Seq: 1e-7, Par: 999999999999999999999},
		Power{W: 20, Alpha: 0.7},
		Power{W: 5e-324, Alpha: 0},
		PerfectSpeedup{W: 1e-6},
		PerfectSpeedup{W: 9.999999999999999e-7},
		Sequential{T: math.Copysign(0, -1)},
		Sequential{T: -1e-300},
		Comm{W: 50, C: 0.25},
		Comm{W: 1.7976931348623157e308, C: 2.2250738585072014e-308},
		Table{T: []Time{9, 5, 4, math.Copysign(0, -1), 1e-7, 1e21, 123456789.125}},
		Table{T: []Time{}},
		Envelope([]Time{100, 52, 36, 27.5}),
		Envelope([]Time{9, 12, math.Copysign(0, -1), 0, 4}),
		pw,
		Piecewise{},
		Capped{J: PerfectSpeedup{W: 64}, Max: 8},
		Capped{J: Capped{J: Power{W: 3, Alpha: 0.5}, Max: 4}, Max: 10},
		Capped{J: Amdahl{Seq: 1, Par: 2}, Max: -3},
		Scaled{J: Amdahl{Seq: 1, Par: 9}, Factor: 2.5},
		Scaled{J: Scaled{J: Sequential{T: 4}, Factor: 3}, Factor: 0.5},
		Scaled{J: Capped{J: PerfectSpeedup{W: 64}, Max: 8}, Factor: 1e-9},
		Capped{J: Scaled{J: Capped{J: PerfectSpeedup{W: 64}, Max: 4}, Factor: 2}, Max: 10},
		Scaled{J: Sequential{T: 2}, Factor: 0},
		&CountingJob{J: Sequential{T: 2}},
	}}
}

// TestAppendMatchesMarshal pins the appender to json.Marshal byte for
// byte, job by job and for the whole instance, and MarshalJob likewise.
func TestAppendMatchesMarshal(t *testing.T) {
	in := mixedInstance(t)
	want, err := marshalReference(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("MarshalInstance:\n  got:  %s\n  want: %s", got, want)
	}
	for i, j := range in.Jobs {
		jj, _ := encodeJob(j)
		want, err := json.Marshal(jj)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := MarshalJob(j); err != nil || !bytes.Equal(got, want) {
			t.Errorf("job %d: MarshalJob = %s, %v; json.Marshal = %s", i, got, err, want)
		}
	}
	for _, in := range []*Instance{{M: 3}, {M: -7, Jobs: []Job{}}} {
		want, _ := marshalReference(in)
		if got, _ := MarshalInstance(in); !bytes.Equal(got, want) {
			t.Errorf("empty instance: got %s, want %s", got, want)
		}
	}
}

// TestAppendErrors pins the error of each input json.Marshal refuses:
// NaN and ±Inf anywhere, and which error wins when there are several.
func TestAppendErrors(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, jobs := range [][]Job{
		{Amdahl{Seq: nan, Par: 1}},
		{PerfectSpeedup{W: 1}, Power{W: 1, Alpha: -inf}},
		{Table{T: []Time{1, inf}}},
		{Scaled{J: Sequential{T: 1}, Factor: inf}},
		{Sequential{T: nan}, Comm{W: inf}},
		{Sequential{T: nan}, nil},
		{nil, Sequential{T: nan}},
	} {
		in := &Instance{M: 4, Jobs: jobs}
		_, want := marshalReference(in)
		got, err := AppendInstance([]byte("keep"), in)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%v: AppendInstance error %v, json.Marshal error %v", jobs, err, want)
		}
		if string(got) != "keep" {
			t.Errorf("%v: dst after error = %q, want it unchanged", jobs, got)
		}
		for _, j := range jobs {
			jj, eerr := encodeJob(j)
			if eerr != nil {
				continue
			}
			_, want := json.Marshal(jj)
			if _, err := MarshalJob(j); (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
				t.Errorf("%v: MarshalJob error %v, json.Marshal error %v", j, err, want)
			}
		}
	}
}

// TestWriteInstanceIndented pins WriteInstance to the indented bytes
// json.MarshalIndent writes, so files written by cmd/geninstance do
// not change.
func TestWriteInstanceIndented(t *testing.T) {
	in := mixedInstance(t)
	out := instanceJSON{M: in.M}
	for _, j := range in.Jobs {
		jj, err := encodeJob(j)
		if err != nil {
			t.Fatal(err)
		}
		out.Jobs = append(out.Jobs, jj)
	}
	want, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteInstance(&got, in); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("WriteInstance:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestRandomNeverDeclines pins that what the encoder writes is what the
// scanner reads: canonical Random instances never take the fallback,
// and decode to what encoding/json decodes.
func TestRandomNeverDeclines(t *testing.T) {
	for seed := range uint64(24) {
		for _, m := range []int{1, 64, 4096, 1 << 20} {
			in := Random(GenConfig{N: 1 + int(seed)*11, M: m, Seed: seed})
			data, err := MarshalInstance(in)
			if err != nil {
				t.Fatal(err)
			}
			s := wirejson.NewScanner(data)
			got, err := ScanInstance(&s)
			if !s.End() {
				t.Fatalf("seed %d, m=%d: the scanner declined its own encoder's output", seed, m)
			}
			want, werr := unmarshalInstanceJSON(data)
			if err != nil || werr != nil || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Fatalf("seed %d, m=%d: scanned %#v, %v; encoding/json %#v, %v", seed, m, got, err, want, werr)
			}
		}
	}
}

// decodeSeeds are the differential fuzz seeds: canonical input, and
// each way encoding/json is more lenient than the scanner or fails.
var decodeSeeds = []string{
	`{"m":64,"jobs":[{"type":"amdahl","seq":2,"par":98},{"type":"power","w":50,"alpha":0.8}]}`,
	`{"jobs":[{"par":98,"type":"amdahl","seq":2}],"m":64}`,
	` {"m":4,"jobs":[{"type":"piecewise","procs":[1,4],"times":[8,2.5],"factor":1.5,"max":6}]} ` + "\n",
	`{"m":4,"jobs":[{"type":"table","times":[]},{"type":"warp"}]}`,
	`{"m":4,"jobs":[{"type":"warp"},{"type":"perfect","w":"x"}]}`,
	`{"M":4,"Jobs":[{"TYPE":"perfect","W":8}]}`,
	`{"m":4,"jobs":[{"type":"perfect","w":8,"extra":[1,{"x":null}]}],"note":"x"}`,
	`{"m":4,"jobs":[{"type":"amdahl","seq":1,"par":9,"max":2}],"jobs":[{"type":"perfect","w":16}]}`,
	`{"m":4,"m":5,"jobs":[]}`,
	`{"m":4,"jobs":[{"type":"perfect","w":8,"w":9}]}`,
	`{"m":null,"jobs":null}`,
	`null`,
	`{"m":4,"jobs":[{"type":"perf\u0065ct","w":8}]}`,
	`{"m":4,"jobs":[{"type":"perfect","w":1e400}]}`,
	`{"m":1.0,"jobs":[]}`,
	`{"m":-0,"jobs":[{"type":"sequential","t":-0}]}`,
	`{"m":4,"jobs":[{"type":"comm","w":5e-324,"c":4.9e-324},{"type":"perfect","w":1e-400}]}`,
	`{"m":4,"jobs":[{"type":"perfect","w":1E+2}]} trailing`,
	`{"m":4,"jobs":[{"type":"perfect","w":8},]}`,
	`{"m":01,"jobs":[]}`,
	`{"m":9223372036854775808,"jobs":[]}`,
	`{"m":4,"jobs":[{"type":"table","times":[1,2,-.5]}]}`,
	`{"type":"power","w":5,"alpha":0.5}`,
	`{"type":"envelope","times":[100,52,36,27.5],"max":3}`,
	`{"m":4,"jobs":[{"type":"envelope","times":[3,5,-0,0,1]},{"type":"envelope","times":[]}]}`,
	`{"type":"piecewise","procs":[1,4.0],"times":[8,2]}`,
	`{"type":"sequential","t":true}`,
	"{\"type\":\"s\u00e9q\",\"t\":1}",
	"{\"type\":\"seq\x01\",\"t\":1}",
	`{}`,
	`[]`,
	``,
}

// FuzzDecodeInstance checks the scanner against encoding/json plus
// decodeJob, the path it replaces, on arbitrary bytes read both as an
// instance and as a single job. The scanner may decline. When it
// accepts, encoding/json must accept the bytes too, and both must give
// the same jobs (float bits, nil against empty slices) or the same
// error. Whatever the scanner does, the exported decoders must agree
// with the reference.
func FuzzDecodeInstance(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		same := func(what string, got, want any, gerr, werr error) {
			t.Helper()
			if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s of %q:\n  got:  %#v, %v\n  want: %#v, %v", what, data, got, gerr, want, werr)
			}
		}
		want, werr := unmarshalInstanceJSON(data)
		got, err := UnmarshalInstance(data)
		same("UnmarshalInstance", got, want, err, werr)
		s := wirejson.NewScanner(data)
		if got, err := ScanInstance(&s); s.End() {
			if jerr := json.Unmarshal(data, new(instanceJSON)); jerr != nil {
				t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", data, jerr)
			}
			same("ScanInstance", got, want, err, werr)
		}

		var jj jobJSON
		var wantJob Job
		jerr := json.Unmarshal(data, &jj)
		werr = jerr
		if jerr == nil {
			wantJob, werr = decodeJob(jj)
		}
		gotJob, err := UnmarshalJob(data)
		same("UnmarshalJob", gotJob, wantJob, err, werr)
		s = wirejson.NewScanner(data)
		if gotJob, err := ScanJob(&s); s.End() {
			if jerr != nil {
				t.Fatalf("scanner accepted job %q, encoding/json refuses it: %v", data, jerr)
			}
			same("ScanJob", gotJob, wantJob, err, werr)
		}
	})
}

// BenchmarkInstanceCodec times the wire codec at the reference shape
// (n = 256, m = 4096): encode into a reused buffer, and decode.
func BenchmarkInstanceCodec(b *testing.B) {
	in := Random(GenConfig{N: 256, M: 4096, Seed: 1})
	data, err := MarshalInstance(in)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 2*len(data))
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if buf, err = AppendInstance(buf[:0], in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for range b.N {
			if _, err := UnmarshalInstance(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
