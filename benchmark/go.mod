module cdb/benchmark

go 1.22

require cdb v0.0.0

replace cdb => ../
