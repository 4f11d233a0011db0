// Fixture: an allow-file waives only the rule it names. The header below
// waives R2 for the thread include and the std::thread; the raw-pointer
// escape in the same file must still raise R1.
// crocco-analyze:allow-file(R2): fixture models a reviewed threading site
#include <thread>
#include <vector>

double exchange(std::vector<double>& buf) {
    double* p = buf.data();
    std::thread worker;
    return p[0];
}
