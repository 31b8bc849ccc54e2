// The benchmark is a module of its own so the repository's tier-1
// `go build ./... && go test ./...` never compiles or runs it. Its path
// sits under `rsmi/`, which is what lets it import rsmi/internal/...
module rsmi/benchmark

go 1.23

require rsmi v0.0.0

replace rsmi => ../
