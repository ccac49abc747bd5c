package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// oracleRequest is IngestRequest without its UnmarshalJSON method, so
// encoding/json decodes it by reflection: the behaviour the single-pass
// parser must reproduce.
type oracleRequest IngestRequest

// oracleDecode decodes body as ingest did before it had its own parser:
// one json.Decoder value into v, and nothing but whitespace after it.
func oracleDecode(body []byte, v *IngestRequest) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode((*oracleRequest)(v)); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// oraclePrefill is a request with frames, pointers and slices in place, to
// decode into as well as into a zero request: a repeated or null member
// then meets values already there.
const oraclePrefill = `{"dataset":"pre","source":"p","blocks":[` +
	`{"height":7,"time_ns":8,"txs":[{"id":"a","vsize":1,"fee":2,"time_ns":3,"coinbase_tag":"/t/","in":{"txid":"b","index":4,"addr":"c","value":5},"out":{"addr":"d","value":6}},{"id":"e"}]},` +
	`{"height":9,"txs":[]}],"mempool":[{"time_ns":1,"tip_height":2,"source":"q","txs":[{"id":"f","first_seen_ns":3}]}]}`

// FuzzDecodeIngest holds IngestRequest.UnmarshalJSON to encoding/json:
// both accept the same bodies, into a zero request and into a filled one,
// and an accepted body yields a reflect.DeepEqual request. An accepted
// body's WAL line parses to the same request while its prefix does not,
// and every transaction ID in it parses as hex.DecodeString says it
// should.
func FuzzDecodeIngest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want IngestRequest
		gotErr, wantErr := got.UnmarshalJSON(body), oracleDecode(body, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("parser error %v, encoding/json error %v", gotErr, wantErr)
		}
		var viaUnmarshal IngestRequest
		if err := json.Unmarshal(body, &viaUnmarshal); (err == nil) != (wantErr == nil) {
			t.Fatalf("json.Unmarshal error %v, encoding/json error %v", err, wantErr)
		}

		var gotPre, wantPre IngestRequest
		if err := gotPre.UnmarshalJSON([]byte(oraclePrefill)); err != nil {
			t.Fatal(err)
		}
		if err := oracleDecode([]byte(oraclePrefill), &wantPre); err != nil {
			t.Fatal(err)
		}
		gotPreErr, wantPreErr := gotPre.UnmarshalJSON(body), oracleDecode(body, &wantPre)
		if (gotPreErr == nil) != (wantPreErr == nil) {
			t.Fatalf("into a filled request: parser error %v, encoding/json error %v", gotPreErr, wantPreErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parser decoded\n%#v\nencoding/json decoded\n%#v", got, want)
		}
		if !reflect.DeepEqual(viaUnmarshal, want) {
			t.Fatalf("json.Unmarshal decoded\n%#v\nencoding/json decoded\n%#v", viaUnmarshal, want)
		}
		if !reflect.DeepEqual(gotPre, wantPre) {
			t.Fatalf("into a filled request, parser decoded\n%#v\nencoding/json decoded\n%#v", gotPre, wantPre)
		}

		line := walLine(append([]byte(nil), body...))
		if bytes.IndexByte(line, '\n') >= 0 {
			t.Fatalf("WAL line holds a newline: %q", line)
		}
		var replayed IngestRequest
		if err := replayed.UnmarshalJSON(line); err != nil || !reflect.DeepEqual(replayed, want) {
			t.Fatalf("WAL line %q replays to %#v, %v", line, replayed, err)
		}
		var torn IngestRequest
		if len(line) > 0 && torn.UnmarshalJSON(line[:len(line)-1]) == nil {
			t.Fatalf("torn WAL line %q parses", line[:len(line)-1])
		}

		for _, id := range txIDs(&got) {
			raw, herr := hex.DecodeString(id)
			id2, err := parseTxID(id)
			if ok := herr == nil && len(raw) == 32; ok != (err == nil) || ok && !bytes.Equal(raw, id2[:]) {
				t.Fatalf("parseTxID(%q) = %x, %v; hex.DecodeString = %x, %v", id, id2, err, raw, herr)
			}
		}
		_, _ = DecodeBatch(&got) // must not panic
	})
}

// txIDs lists every transaction ID string a request carries.
func txIDs(req *IngestRequest) []string {
	var ids []string
	for _, b := range req.Blocks {
		for _, tx := range b.Txs {
			ids = append(ids, tx.ID)
			if tx.In != nil {
				ids = append(ids, tx.In.TxID)
			}
		}
	}
	for _, s := range req.Mempool {
		for _, tx := range s.Txs {
			ids = append(ids, tx.ID)
		}
	}
	return ids
}
