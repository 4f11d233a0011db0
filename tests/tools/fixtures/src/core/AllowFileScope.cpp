// Fixture: an allow-file waives only the rule it names. The header below
// waives R6 for the two raw posts; the raw-pointer escape in the same file
// must still raise R1.
// crocco-analyze:allow-file(R6): fixture models a reviewed raw-post site
#include <vector>

struct Comm;

double exchange(Comm* comm, std::vector<double>& buf) {
    double* p = buf.data();
    comm->isend(p, 8, 1);
    comm->irecv(p, 8, 1);
    return p[0];
}
