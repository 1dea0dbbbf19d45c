module o2k/bench

go 1.24

require o2k v0.0.0

replace o2k => ../
