module github.com/dfi-sdn/dfi/benchmark

go 1.22

require github.com/dfi-sdn/dfi v0.0.0

replace github.com/dfi-sdn/dfi => ../
