package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/sqlparse"
)

// request is one API call of a serving workload: an endpoint and its JSON
// body.
type request struct {
	path string
	body []byte
}

// apiBody carries the request fields the serving API reads.
type apiBody struct {
	DB          string   `json:"db,omitempty"`
	Model       string   `json:"model,omitempty"`
	Variant     string   `json:"variant,omitempty"`
	QuestionID  int      `json:"question_id,omitempty"`
	Identifier  string   `json:"identifier,omitempty"`
	Identifiers []string `json:"identifiers,omitempty"`
	Op          string   `json:"op,omitempty"`
	GoldSQL     string   `json:"gold_sql,omitempty"`
	PredSQL     string   `json:"pred_sql,omitempty"`
}

// wireVariants are the four schema variants as the API spells them.
var wireVariants = []string{"native", "regular", "low", "least"}

// keyspace is a serving workload's table of distinct requests and the
// distribution its traffic draws from the table.
type keyspace struct {
	table []request
	// drawer returns a function that draws table indices from r.
	drawer func(r *rand.Rand) func() int
	// The warm-up first sends the table's keys from warmFrom on, in table
	// order.
	warmFrom int
}

func (k *keyspace) add(path string, b apiBody) {
	body, err := json.Marshal(b)
	if err != nil {
		panic(err) // apiBody holds only strings and ints
	}
	k.table = append(k.table, request{path: path, body: body})
}

// keys draws n table indices with seed.
func (k *keyspace) keys(seed int64, n int) []int32 {
	next := k.drawer(rand.New(rand.NewSource(seed)))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(next())
	}
	return out
}

// warmKeys lists what the warm-up sends closed-loop.
func (k *keyspace) warmKeys() []int32 {
	var out []int32
	for i := k.warmFrom; i < len(k.table); i++ {
		out = append(out, int32(i))
	}
	return out
}

// wideLinks is how many distinct /v1/link requests serve-wide's table holds.
// Their SQL texts outnumber the server's 8,192-entry gold and 16,384-entry
// prediction memos, so most link requests execute both of their queries.
const wideLinks = 24 * 1024

// wideKeys is serve-wide's key space: every (db, question, model, variant)
// /v1/infer key of the paper grid, 12,072 requests, about 3× the server's
// 4,096-entry response cache; /v1/link requests pairing two gold queries of
// one database, each respelled by recase; /v1/classify requests over three
// identifiers from any schema or over one database's whole schema; and
// /v1/modify requests expanding an identifier from any schema.
//
// The traffic keeps the endpoint mix of `snailsbench -loadgen` (workload in
// cmd/snailsbench/loadgen.go): of every 24 requests, 18 infer, 3 link, 1
// classify over three identifiers, 1 classify over a database and 1 expand.
// Each key is drawn uniformly within its slot. The three-identifier classify
// and the expand pools hold 1/18 as many keys as infer, so each of their
// keys recurs at an infer key's rate and meets the response cache as one
// does; the database classify has one key per database.
func wideKeys(seed int64) keyspace {
	k := keyspace{}
	for _, db := range datasets.Names {
		for _, q := range experiments.Questions(db) {
			for _, m := range experiments.ModelNames() {
				for _, v := range wireVariants {
					k.add("/v1/infer", apiBody{DB: db, Model: m, Variant: v, QuestionID: q.ID})
				}
			}
		}
	}
	infer := len(k.table)
	// Every request past the infer keys is warmed once, so that the SQL
	// memos are full, and evicting, before anything is timed.
	k.warmFrom = infer

	r := rand.New(rand.NewSource(seed))
	var ids []string
	for _, b := range datasets.All() {
		for _, id := range b.Schema.UniqueIdentifiers() {
			if strings.TrimSpace(id) != "" {
				ids = append(ids, id)
			}
		}
	}
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	for i := 0; i < wideLinks; i++ {
		db := pick(datasets.Names)
		qs := experiments.Questions(db)
		gold, pred := qs[r.Intn(len(qs))].Gold, qs[r.Intn(len(qs))].Gold
		k.add("/v1/link", apiBody{DB: db, GoldSQL: recase(r, gold), PredSQL: recase(r, pred)})
	}
	pool := infer / 18
	triples := len(k.table)
	for i := 0; i < pool; i++ {
		k.add("/v1/classify", apiBody{Identifiers: []string{pick(ids), pick(ids), pick(ids)}})
	}
	byDB := len(k.table)
	for _, db := range datasets.Names {
		k.add("/v1/classify", apiBody{DB: db})
	}
	expand := len(k.table)
	for i := 0; i < pool; i++ {
		k.add("/v1/modify", apiBody{Op: "expand", Identifier: pick(ids)})
	}
	k.drawer = func(r *rand.Rand) func() int {
		return func() int {
			switch slot := r.Intn(24); {
			case slot < 18:
				return r.Intn(infer)
			case slot < 21:
				return infer + r.Intn(wideLinks)
			case slot == 21:
				return triples + r.Intn(pool)
			case slot == 22:
				return byDB + r.Intn(len(datasets.Names))
			default:
				return expand + r.Intn(pool)
			}
		}
	}
	return k
}

// recase respells each keyword of sql in lower case with even odds, outside
// quoted literals. The parser reads keywords in any case, so the respelled
// query means the same, but it is a new text to every memo keyed by SQL.
func recase(r *rand.Rand, sql string) string {
	words := strings.Split(sql, " ")
	quoted := false
	for i, w := range words {
		if !quoted && w == strings.ToUpper(w) && sqlparse.IsKeyword(w) && r.Intn(2) == 0 {
			words[i] = strings.ToLower(w)
		}
		if strings.Count(w, "'")%2 == 1 {
			quoted = !quoted
		}
	}
	return strings.Join(words, " ")
}

// hotPerPair is how many distinct infer keys cluster-hot places on each
// (db, variant) pair: 8 × 9 databases × 4 variants = 288 keys, spread so
// that both shards carry traffic.
const hotPerPair = 8

// hotKeys is cluster-hot's key space: 288 /v1/infer keys in a seeded rank
// order, drawn Zipf(s=1.1) over the ranks, so a few keys carry most of the
// traffic and, once the warm-up has sent every key, nearly every request is
// a shard cache hit.
func hotKeys(seed int64) keyspace {
	r := rand.New(rand.NewSource(seed))
	models := experiments.ModelNames()
	k := keyspace{}
	seen := map[string]bool{}
	for n := 0; n < hotPerPair; n++ {
		for _, db := range datasets.Names {
			qs := experiments.Questions(db)
			for _, v := range wireVariants {
				for {
					b := apiBody{DB: db, Model: models[r.Intn(len(models))], Variant: v, QuestionID: qs[r.Intn(len(qs))].ID}
					key := fmt.Sprintf("%s|%s|%s|%d", b.DB, b.Variant, b.Model, b.QuestionID)
					if !seen[key] {
						seen[key] = true
						k.add("/v1/infer", b)
						break
					}
				}
			}
		}
	}
	r.Shuffle(len(k.table), func(i, j int) { k.table[i], k.table[j] = k.table[j], k.table[i] })
	top := uint64(len(k.table) - 1)
	k.drawer = func(r *rand.Rand) func() int {
		z := rand.NewZipf(r, 1.1, 1, top)
		return func() int { return int(z.Uint64()) }
	}
	return k
}
