package jobtrace

// Tenant returns the tenant the job was started for.
func (j *Job) Tenant() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tenant
}
