# Local developer loop. CI runs the same commands (see .github/workflows/ci.yml).

REPOLINT := $(CURDIR)/bin/repolint

.PHONY: build test lint repolint fuzz-smoke fmt

build:
	go build ./...

test:
	go test ./...

# repolint builds the invariant checker; lint runs it over every package —
# including test files — via the go vet -vettool protocol.
repolint:
	@mkdir -p bin
	go build -o $(REPOLINT) ./cmd/repolint

lint: repolint
	go vet -vettool=$(REPOLINT) ./...

fuzz-smoke:
	go test ./internal/olap -run='^$$' -fuzz=FuzzMergePartials -fuzztime=30s
	go test ./internal/objstore -run='^$$' -fuzz=FuzzDecodeColumnar -fuzztime=30s

fmt:
	gofmt -w .
