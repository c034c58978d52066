#include "machine/machine.hh"

#include "common/logging.hh"

namespace april
{

task::Report
Machine::taskReport()
{
    task::Tracer *t = taskTracer();
    panicIfNot(t, "taskReport: the task plane is off");
    task::AnalyzeParams p;
    p.numNodes = numNodes();
    p.totalCycles = cycle();
    task::Report r = task::analyze(t->events(), p);
    r.dropped = t->dropped();
    return r;
}

void
Machine::writeTaskTrace(std::ostream &os)
{
    if (taskTracer())
        task::writeReportJson(os, taskReport());
}

} // namespace april
