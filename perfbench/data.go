package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metadata"
	"repro/internal/record"
)

// Data sizes shared by every workload.
const (
	staticRows     = 100_000 // backlog produced before the pipeline exists
	numRestaurants = 2_000
	staticStepMs   = 10 // event-time spacing of the backlog
	// staticT0 is the event time of the first backlog row. Live rows start an
	// hour after the last backlog row, so a query's time window can cover
	// the backlog and no live row.
	staticT0    = int64(1_600_000_000_000)
	liveT0      = staticT0 + staticRows*staticStepMs + 3_600_000
	segmentRows = 2_500
)

var (
	// Cities are skewed (8x between the largest and the smallest) with a
	// flat middle third. Query literals are stratified over these thirds
	// (see makeQueries), so a kind's median latency falls inside a run of
	// equally costly instances instead of on the step between two.
	cities = []string{"sf", "nyc", "la", "chicago", "austin", "seattle",
		"boston", "denver", "miami", "atlanta", "portland", "dallas"}
	cityWeights = []float64{16, 14, 12, 10, 9, 9, 9, 9, 8, 6, 4, 2}
	statuses    = []string{"delivered", "preparing", "enroute", "cancelled"}
	statusW     = []float64{1, 1, 1, 1}
	clients     = []string{"ios", "android", "web"}
	promos      = []string{"none", "none", "none", "save10", "freeship"}
	cuisines    = []string{"mexican", "thai", "indian", "italian", "burgers",
		"sushi", "pizza", "vegan"}
)

// rawSchema is the producers' event schema. The enrich job projects away the
// client and promo fields.
func rawSchema() *metadata.Schema {
	return &metadata.Schema{
		Name: "orders_raw",
		Fields: []metadata.Field{
			{Name: "order_id", Type: metadata.TypeLong},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "status", Type: metadata.TypeString, Dimension: true},
			{Name: "restaurant", Type: metadata.TypeString, Dimension: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
			{Name: "client", Type: metadata.TypeString, Dimension: true},
			{Name: "promo", Type: metadata.TypeString, Dimension: true},
		},
		TimeField: "ts",
	}
}

// ordersSchema is the enriched stream and OLAP table schema.
func ordersSchema() *metadata.Schema {
	s := rawSchema()
	s.Name = "orders"
	s.Fields = s.Fields[:6]
	return s
}

func restaurantsSchema() *metadata.Schema {
	return &metadata.Schema{
		Name: "restaurants",
		Fields: []metadata.Field{
			{Name: "restaurant", Type: metadata.TypeString, Dimension: true},
			{Name: "cuisine", Type: metadata.TypeString, Dimension: true},
			{Name: "rating", Type: metadata.TypeDouble},
			{Name: "updated", Type: metadata.TypeTimestamp},
		},
		TimeField: "updated",
	}
}

// event is one generated order.
type event struct {
	orderID    int64
	city       string
	status     string
	restaurant string
	amount     float64 // a multiple of 0.25, so float sums are exact in any order
	ts         int64
	client     string
	promo      string
}

func (e *event) record() record.Record {
	return record.Record{
		"order_id": e.orderID, "city": e.city, "status": e.status,
		"restaurant": e.restaurant, "amount": e.amount, "ts": e.ts,
		"client": e.client, "promo": e.promo,
	}
}

// dataset is every input of one run, generated from the seed before any call
// into the pipeline.
type dataset struct {
	static  []event
	live    []event // scheduled batch after batch from the start of the live phase
	cuisine map[string]string
	dims    []record.Record

	staticPayloads [][]byte
	livePayloads   [][]byte
	dimPayloads    [][]byte
}

type generator struct {
	r          *rand.Rand
	zipf       *rand.Zipf
	cityCDF    []float64
	statusCDF  []float64
	restaurant []string
}

func cdf(w []float64) []float64 {
	out := make([]float64, len(w))
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	acc := 0.0
	for i, x := range w {
		acc += x / sum
		out[i] = acc
	}
	out[len(out)-1] = 1
	return out
}

func pick(r *rand.Rand, c []float64) int {
	u := r.Float64()
	for i, v := range c {
		if u < v {
			return i
		}
	}
	return len(c) - 1
}

func newGenerator(seed int64) *generator {
	r := rand.New(rand.NewSource(seed))
	g := &generator{
		r:         r,
		zipf:      rand.NewZipf(r, 1.07, 2, numRestaurants-1),
		cityCDF:   cdf(cityWeights),
		statusCDF: cdf(statusW),
	}
	for i := 0; i < numRestaurants; i++ {
		g.restaurant = append(g.restaurant, fmt.Sprintf("r%04d", i))
	}
	// Heavy hitters are scattered over the name space, not r0000..r0009.
	r.Shuffle(len(g.restaurant), func(i, j int) {
		g.restaurant[i], g.restaurant[j] = g.restaurant[j], g.restaurant[i]
	})
	return g
}

func (g *generator) event(id, ts int64) event {
	return event{
		orderID:    id,
		city:       cities[pick(g.r, g.cityCDF)],
		status:     statuses[pick(g.r, g.statusCDF)],
		restaurant: g.restaurant[g.zipf.Uint64()],
		amount:     float64(4+g.r.Intn(316)) / 4,
		ts:         ts,
		client:     clients[g.r.Intn(len(clients))],
		promo:      promos[g.r.Intn(len(promos))],
	}
}

// generate builds the inputs of one run: the backlog, liveRows live events
// in batches of batchRows spaced batchInterval apart, and the restaurant
// dimension. Payloads are encoded later by encode.
func generate(seed int64, nStatic, liveRows, batchRows int, batchInterval time.Duration) *dataset {
	g := newGenerator(seed)
	ds := &dataset{cuisine: make(map[string]string, numRestaurants)}
	ds.static = make([]event, nStatic)
	for i := range ds.static {
		ds.static[i] = g.event(int64(i+1), staticT0+int64(i)*staticStepMs)
	}
	ds.live = make([]event, liveRows)
	for j := range ds.live {
		ts := liveT0 + int64(j/batchRows)*batchInterval.Milliseconds()
		ds.live[j] = g.event(int64(nStatic+j+1), ts)
	}
	for i, name := range g.restaurant {
		c := cuisines[g.r.Intn(len(cuisines))]
		ds.cuisine[name] = c
		ds.dims = append(ds.dims, record.Record{
			"restaurant": name, "cuisine": c,
			"rating":  float64(6+g.r.Intn(15)) / 4,
			"updated": staticT0 + int64(i),
		})
	}
	return ds
}

// encode pre-encodes every payload with codecs bound to the schemas the
// platform registers (version 1), recording one span per batch of batchRows
// encode calls. It returns the mean encode time per row.
func (ds *dataset) encode(rec *recorder, batchRows int) (nsPerRow float64, err error) {
	rawCodec, err := versioned(rawSchema())
	if err != nil {
		return 0, err
	}
	dimCodec, err := versioned(restaurantsSchema())
	if err != nil {
		return 0, err
	}
	var total time.Duration
	rows := 0
	encodeAll := func(c *record.Codec, recs func(i int) record.Record, n int) ([][]byte, error) {
		out := make([][]byte, n)
		for lo := 0; lo < n; lo += batchRows {
			hi := min(lo+batchRows, n)
			op := rec.newOp()
			sp := rec.start(op, -1, "record.Codec.Encode")
			start := time.Now()
			for i := lo; i < hi; i++ {
				b, err := c.Encode(recs(i))
				if err != nil {
					return nil, err
				}
				out[i] = b
			}
			total += time.Since(start)
			rows += hi - lo
			rec.end(sp, int64(hi-lo))
		}
		return out, nil
	}
	if ds.staticPayloads, err = encodeAll(rawCodec, func(i int) record.Record { return ds.static[i].record() }, len(ds.static)); err != nil {
		return 0, err
	}
	if ds.livePayloads, err = encodeAll(rawCodec, func(i int) record.Record { return ds.live[i].record() }, len(ds.live)); err != nil {
		return 0, err
	}
	if ds.dimPayloads, err = encodeAll(dimCodec, func(i int) record.Record { return ds.dims[i] }, len(ds.dims)); err != nil {
		return 0, err
	}
	return float64(total.Nanoseconds()) / float64(rows), nil
}

// versioned returns a codec for the first registered version of s, which is
// the version core.Platform.CreateStream assigns on a fresh registry.
func versioned(s *metadata.Schema) (*record.Codec, error) {
	s.Version = 1
	return record.NewCodec(s)
}
