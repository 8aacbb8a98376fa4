module tbnet/bench

go 1.22

require tbnet v0.0.0

replace tbnet => ../
